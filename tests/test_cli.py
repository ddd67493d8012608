import json
import random

import pytest

from qonsager import cli
from qonsager import qfield as qf
from qonsager import rewrite
from qonsager.words import NCPoly, g_, gt_, render_poly, wm, wp


def test_parse_simple_word():
    p = cli.parse_to_poly("W[1]*W[0]")
    assert p == NCPoly.word((wp(1), wm(0)))


def test_parse_g0_scalar():
    p = cli.parse_to_poly("G[0]")
    assert p == NCPoly.scalar(qf.g0_const())


def test_parse_mixed_expression():
    p = cli.parse_to_poly("q^2*W[-1]*Gt[3] + [2]q*G[1]")
    expected = (NCPoly.word((wm(1), gt_(3)), qf.q_pow(2))
                + NCPoly.gen(g_(1)) * qf.q_int(2))
    assert p == expected


def test_parse_scalars_and_division():
    p = cli.parse_to_poly("(q^2 + 1)/(q)")
    assert p == NCPoly.scalar(qf.q_int(2))
    p2 = cli.parse_to_poly("-3*q^-2")
    assert p2 == NCPoly.scalar(qf.of(-3) * qf.q_pow(-2))
    with pytest.raises(cli.ParseError):
        cli.parse_to_poly("q / W[0]")


def test_parse_errors():
    with pytest.raises(cli.ParseError):
        cli.parse_to_poly("W[1] +")
    with pytest.raises(cli.ParseError):
        cli.parse_to_poly("G[-2]")
    with pytest.raises(cli.ParseError):
        cli.parse_to_poly("W[1] @ W[0]")


def random_poly(rng):
    letters = [g_(1), g_(2), wm(0), wm(1), wp(1), wp(2), gt_(1), gt_(2)]
    terms = {}
    for _ in range(rng.randint(1, 4)):
        word = tuple(rng.choice(letters) for _ in range(rng.randint(0, 3)))
        coeff = qf.q_pow(rng.randint(-3, 3)) * qf.of(rng.randint(-5, 5))
        if not coeff.is_zero():
            terms[word] = coeff
    return NCPoly(terms)


def test_render_parse_round_trip():
    rng = random.Random(21)
    for _ in range(40):
        p = random_poly(rng)
        text = render_poly(p)
        assert cli.parse_to_poly(text) == p


def test_normalize_command(capsys):
    rc = cli.main(["normalize", "W[1]*W[0]"])
    out = capsys.readouterr().out.strip()
    assert rc == 0
    assert cli.parse_to_poly(out) == rewrite.normal_form(
        NCPoly.word((wp(1), wm(0))))


def test_dims_command(capsys):
    rc = cli.main(["dims", "--max-degree", "8"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "1 2 5 10 20 36 65 110 185" in out


def test_check_ambiguities_bound_two(capsys):
    rc = cli.main(["check", "ambiguities", "--bound", "2"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "220/220 passed" in out


def test_json_schema(capsys):
    rc = cli.main(["--format", "json", "check", "dolan-grady"])
    payload = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert set(payload) == {"command", "parameters", "results", "version"}
    assert all(set(r) == {"name", "pass", "detail"} for r in payload["results"])
    assert all(r["pass"] for r in payload["results"])


def test_zn_json_fields(capsys):
    rc = cli.main(["--format", "json", "zn", "--n", "2"])
    payload = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert payload["n"] == 2
    assert payload["term_count"] == len(cli.parse_to_poly(payload["direct"]).terms)
    assert payload["max_degree"] <= 4
    assert payload["direct"] == payload["extraction"]


def test_exit_code_contract(capsys):
    rc = cli.main(["--format", "json", "check", "appendix-b"])
    payload = json.loads(capsys.readouterr().out)
    assert (rc == 0) == all(r["pass"] for r in payload["results"])


def test_parse_error_exit_code(capsys):
    rc = cli.main(["normalize", "W[1]*"])
    err = capsys.readouterr().err
    assert rc == 2
    assert "parse error" in err


def test_usage_error_exit_code(capsys):
    rc = cli.main(["check", "no-such-suite"])
    capsys.readouterr()
    assert rc == 2


@pytest.mark.parametrize("argv", [
    ["check", "central", "--n", "-1"],
    ["check", "matrix", "--order", "-1"],
    ["check", "ambiguities", "--bound", "-1"],
    ["dims", "--max-degree", "-1"],
])
def test_negative_size_is_usage_error(capsys, argv):
    rc = cli.main(argv)
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert "must be non-negative" in captured.err


def test_empty_report_fails(capsys):
    report = cli.Report("empty")
    assert not report.passed
    args = cli.build_parser().parse_args(["--format", "json", "check", "gf"])
    rc = cli._emit(args, "check empty", {}, report)
    assert json.loads(capsys.readouterr().out)["results"] == []
    assert rc == 1


def test_series_command(capsys):
    rc = cli.main(["series", "W-", "--order", "2"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "W[0]" in out and "W[-2]" in out
    rc = cli.main(["series", "C", "--order", "1"])
    assert rc == 0
    rc = cli.main(["series", "Z", "--order", "1"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "W[0]*W[1]" in out


def test_recover_command(capsys):
    rc = cli.main(["recover", "--n", "1"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "G[1] = G[1]" in out


def test_check_central_default_bound(capsys):
    rc = cli.main(["check", "central", "--n", "0"])
    out = capsys.readouterr().out
    assert rc == 0
    # 24 generators at the default index bound of 6
    assert "24/24 passed" in out


def test_worker_env_parallel_suite(capsys, monkeypatch):
    monkeypatch.setenv("ONSAGER_WORKERS", "2")
    rc = cli.main(["check", "ambiguities", "--bound", "0"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "4/4 passed" in out
