import fcntl
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qonsager import central, cli, dims
from qonsager import qfield as qf
from qonsager import rewrite, series, words
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


def test_unknown_series_is_usage_error(capsys):
    rc = cli.main(["series", "X"])
    captured = capsys.readouterr()
    assert (rc, captured.out, captured.err) == (
        2, "", "error: unknown series 'X'\n")


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


def test_check_central_bound_zero_is_usage_error(capsys, monkeypatch):
    def no_work(*args):
        raise AssertionError("check central ran before rejecting its bound")

    monkeypatch.setattr(central, "z_n", no_work)
    monkeypatch.setattr(central, "check_central", no_work)
    rc = cli.main(["check", "central", "--n", "4", "--bound", "0"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert "--bound >= 1" in captured.err


def test_check_central_refuses_a_pair_above_the_cost_cap(capsys,
                                                        monkeypatch):
    # each pair lies inside both one-parameter caps
    def no_work(*args):
        raise AssertionError("check central ran before rejecting its pair")

    monkeypatch.setattr(central, "z_n", no_work)
    monkeypatch.setattr(central, "check_central", no_work)
    for n, bound in ((14, 100), (22, 7), (8, 201), (20, 9), (5, 1000)):
        assert cli.central_cost(n, bound) > cli.CENTRAL_COST_CAP
        rc = cli.main(["check", "central", "--n", str(n), "--bound",
                       str(bound)])
        captured = capsys.readouterr()
        assert (rc, captured.out) == (2, "")
        assert ("error: check central needs --bound * (--n + 2)^4 "
                "<= 2,000,000: " in captured.err)
    # accepted: each cap at the other's default (given, or left out and
    # paired with the default), the benchmark's pair, the golden pair and
    # the defaults
    n_cap = cli.LIMITS["check central", "n"][1]
    bound_cap = cli.LIMITS["check central", "bound"][1]
    for params in ({"n": n_cap, "bound": 6}, {"n": 4, "bound": bound_cap},
                   {"n": n_cap}, {"bound": bound_cap}, {"n": 6, "bound": 6},
                   {"n": 2, "bound": 2}, {"n": 4, "bound": 6}, {}):
        assert cli._check_limits("check central", params) == params


# the functions that do each capped command's work
_WORK = {
    "check relations": [(words, "defining_relations")],
    "check ambiguities": [(rewrite, "enumerate_overlaps"),
                          (rewrite, "check_overlap")],
    "check central": [(central, "z_n"), (central, "check_central")],
    "check gf": [(series, "check_gf_relations")],
    "check prop41": [(series, "check_prop41_decompositions")],
    "check matrix": [(central, "check_matrix_factorization")],
    "zn": [(central, "z_n")],
    "recover": [(central, "z_n"), (central, "recover_generators")],
    "dims": [(dims, "hilbert_Aq"), (dims, "enumerate_irreducible")],
}


def test_check_ambiguities_above_the_bound_cap_is_usage_error(capsys,
                                                             monkeypatch):
    # every LIMITS row, with the functions that would do the command's work
    # patched to fail: a value outside the row's range is refused first
    def no_work(*args):
        raise AssertionError("a command ran before rejecting its size")

    assert {command for command, _ in cli.LIMITS} == set(_WORK)
    for module, name in {pair for pairs in _WORK.values() for pair in pairs}:
        monkeypatch.setattr(module, name, no_work)
    for (command, name), (least, largest, reason) in cli.LIMITS.items():
        option = "--" + name.replace("_", "-")
        refused = [(largest + 1, f"<= {largest}"), (100_000, f"<= {largest}")]
        if least > 0:
            refused.append((least - 1, f">= {least}"))
        for value, needs in refused:
            rc = cli.main([*command.split(), option, str(value)])
            captured = capsys.readouterr()
            assert (rc, captured.out) == (2, "")
            assert (f"error: {command} needs {option} {needs}: {reason}"
                    in captured.err)
        for value in (least, largest):
            assert cli._check_limits(command, {name: value}) == {name: value}
    monkeypatch.undo()
    # the caps of the rewrite suites run, on their bound-0 work
    small_overlaps = rewrite.enumerate_overlaps(0)
    small_relations = list(words.defining_relations(0))
    for suite, module, name, small in (
            ("ambiguities", rewrite, "enumerate_overlaps", small_overlaps),
            ("relations", words, "defining_relations", small_relations)):
        monkeypatch.setattr(module, name, lambda bound: small)
        cap = cli.LIMITS[f"check {suite}", "bound"][1]
        rc = cli.main(["check", suite, "--bound", str(cap)])
        assert rc == 0
        n = len(small)
        assert f"{n}/{n} passed" in capsys.readouterr().out
        monkeypatch.undo()


def test_python_dash_m_runs_the_cli():
    env = {**os.environ, "PYTHONPATH": "src"}
    proc = subprocess.run(
        [sys.executable, "-m", "qonsager", "--format", "json", "check",
         "ambiguities", "--bound", "0"],
        cwd=Path(__file__).resolve().parent.parent, env=env,
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["command"] == "check ambiguities"


def test_a_reader_that_leaves_early_ends_the_cli_with_exit_141():
    root = Path(__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": "src"}
    argv = [sys.executable, "-m", "qonsager", "series", "W-", "--order"]
    # the pipe holds one page, so the rest of the listing (about 14 kB)
    # is written after the reader has taken the first line and closed it
    read_fd, write_fd = os.pipe()
    fcntl.fcntl(write_fd, fcntl.F_SETPIPE_SZ, 4096)
    with os.fdopen(read_fd, "rb", buffering=0) as reader:
        proc = subprocess.Popen(argv + ["1000"], cwd=root, env=env,
                                stdout=write_fd, stderr=subprocess.PIPE)
        os.close(write_fd)
        first = b""
        while not first.endswith(b"\n"):
            first += reader.read(1)
    _, err = proc.communicate(timeout=120)
    assert first == b"[1] W[0]\n"
    assert (proc.returncode, err) == (141, b"")
    # a short listing held in the stdout buffer meets the closed pipe only
    # when it is flushed; argparse's help, which argparse itself would let
    # fail silently, meets it written through or flushed
    env.pop("PYTHONUNBUFFERED", None)
    for args, extra in ((argv + ["3"], {}), (argv[:3] + ["--help"], {}),
                        (argv[:3] + ["--help"], {"PYTHONUNBUFFERED": "1"})):
        read_fd, write_fd = os.pipe()
        os.close(read_fd)
        proc = subprocess.Popen(args, cwd=root, env={**env, **extra},
                                stdout=write_fd, stderr=subprocess.PIPE)
        os.close(write_fd)
        _, err = proc.communicate(timeout=120)
        assert (args, proc.returncode, err) == (args, 141, b"")


def test_long_flat_sum_and_product(capsys):
    # sums and products fold in loops, so their length is not bounded by
    # the recursion limit
    rc = cli.main(["normalize", "+".join(["W[0]"] * 3000)])
    assert rc == 0
    assert capsys.readouterr().out.strip() == "(3000)*W[0]"
    p = cli.parse_to_poly("*".join(["W[0]"] * 3000))
    assert p == NCPoly.word((wm(0),) * 3000)


def test_paren_nesting_limit(capsys):
    assert cli.parse_to_poly("(" * 200 + "W[1]" + ")" * 200) == NCPoly.gen(wp(1))
    rc = cli.main(["normalize", "(" * 3000 + "W[1]" + ")" * 3000])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert "parse error" in captured.err


def test_recover_builds_its_table_once(capsys, monkeypatch):
    calls = []
    build = central.recover_generators

    def counting(*args, **kwargs):
        calls.append(args)
        return build(*args, **kwargs)

    monkeypatch.setattr(central, "recover_generators", counting)
    rc = cli.main(["recover", "--n", "2"])
    capsys.readouterr()
    assert rc == 0
    assert calls == [(2,)]


@pytest.mark.parametrize("text,message", [
    ("1/0", "division by zero (at column 2)"),
    ("W[0]/(q-q)", "division by zero (at column 5)"),
    ("W[1] + q / W[0]", "division by a non-scalar expression (at column 10)"),
])
def test_bad_division_is_parse_error_at_the_slash(capsys, text, message):
    rc = cli.main(["normalize", text])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert message in captured.err


def test_tokens_carry_their_columns():
    assert cli._tokenize(" W[12] *\tGt[3]q^-3 \n") == [
        ("W", 1), ("[", 2), ("12", 3), ("]", 5), ("*", 7), ("Gt", 9),
        ("[", 11), ("3", 12), ("]", 13), ("q", 14), ("^", 15), ("-", 16),
        ("3", 17)]
    assert cli._tokenize("") == cli._tokenize(" \t") == []


@pytest.mark.parametrize("text,message", [
    ("x", "unexpected character 'x' (at column 1)"),
    ("W[1]*$", "unexpected character '$' (at column 6)"),
    ("W[1] +é+ $", "unexpected character 'é' (at column 7)"),
])
def test_an_unknown_character_is_a_parse_error(capsys, text, message):
    rc = cli.main(["normalize", text])
    captured = capsys.readouterr()
    assert (rc, captured.out) == (2, "")
    assert captured.err == f"parse error: {message}\n"


def test_exponent_limit(capsys, monkeypatch):
    cap = cli.MAX_EXPONENT
    assert cli.parse_to_poly(f"q^{cap}") == NCPoly.scalar(qf.q_pow(cap))
    assert cli.parse_to_poly(f"[-{cap}]q") == NCPoly.scalar(qf.q_int(-cap))

    # refused before any Q(q) arithmetic starts
    def no_arithmetic(n):
        raise AssertionError("reached Q(q) arithmetic")

    monkeypatch.setattr(qf, "q_pow", no_arithmetic)
    monkeypatch.setattr(qf, "q_int", no_arithmetic)
    for text in (f"q^{cap + 1} + 1", f"q^-{cap + 1}", f"[{cap + 1}]q",
                 f"W[1]*[-{cap + 1}]q"):
        rc = cli.main(["normalize", text])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert "parse error" in captured.err


def test_subscript_limit(capsys):
    cap = cli.MAX_EXPONENT
    rc = cli.main(["normalize", f"W[{cap}]"])
    assert rc == 0
    assert capsys.readouterr().out.strip() == f"W[{cap}]"
    for text in (f"W[{cap + 1}]", f"W[-{cap + 1}]", f"G[{cap + 1}]",
                 f"Gt[{cap + 1}]"):
        rc = cli.main(["normalize", text])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        column = text.index("[") + 2
        assert (f"subscript beyond {cap} in absolute value "
                f"(at column {column})") in captured.err


@pytest.mark.parametrize("error,code,prefix", [
    (rewrite.RewriteInternalError("no rule for pair"), 3, "internal error:"),
    (KeyError("recursion touched G[1] before recovery"), 3, "internal error:"),
    (IndexError("list index out of range"), 3, "internal error:"),
    (ValueError("bad value"), 2, "error:"),
    (series.FloorUnderflowError("product exponent (-3,) underflows"), 3,
     "internal error:"),
    (RuntimeError("insufficient margin building the central series"), 3,
     "internal error:"),
    (series.DivisibilityError("not divisible by (s - t)"), 3, "internal error:"),
    (series.WindowError("exponent (5,) outside window"), 3, "internal error:"),
], ids=["RewriteInternalError", "KeyError", "IndexError", "ValueError",
        "FloorUnderflowError", "RuntimeError", "DivisibilityError",
        "WindowError"])
def test_internal_errors_have_their_own_exit_code(capsys, monkeypatch, error,
                                                  code, prefix):
    def failing(poly):
        raise error

    monkeypatch.setattr(rewrite, "normal_form", failing)
    rc = cli.main(["normalize", "W[1]*W[0]"])
    captured = capsys.readouterr()
    assert rc == code
    assert captured.out == ""
    assert captured.err.startswith(prefix)


@pytest.mark.parametrize("text,column", [
    ("", 1), ("W[1] +", 7), ("(", 2), ("W[", 3), ("q^", 3), ("[2]", 4),
], ids=["empty", "dangling-plus", "open-paren", "open-subscript", "caret",
        "quantum-integer"])
def test_end_of_input_parse_error(capsys, text, column):
    rc = cli.main(["normalize", text])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err == (f"parse error: unexpected end of input "
                            f"(at column {column})\n")


_COEFFS = [qf.QONE, -qf.QONE, qf.q_pow(-2), qf.of(Fraction(-3, 4)),
           qf.q_int(3), qf.q_int(-2) * qf.q_pow(5), qf.g0_const(),
           (qf.q_pow(2) + qf.q_pow(-2)).inverse(),
           qf.of(Fraction(7, 2)) * (qf.Q - qf.q_pow(-1)).inverse()]
_LETTERS = [g_(1), g_(2), wm(0), wm(1), wp(1), wp(2), gt_(1), gt_(2)]


@settings(max_examples=60, deadline=None)
@given(terms=st.lists(st.tuples(st.lists(st.sampled_from(_LETTERS), max_size=3),
                                st.sampled_from(_COEFFS)),
                      min_size=1, max_size=4))
def test_render_parse_round_trip_on_normal_forms(terms):
    nf = rewrite.normal_form(NCPoly([(tuple(w), c) for w, c in terms]))
    assert cli.parse_to_poly(render_poly(nf)) == nf
