import fcntl
import json
import math
import os
import random
import subprocess
import sys
import time
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
    assert p == NCPoly.scalar(qf.G0)


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
    "series Z": [(central, "z_series")],
    **{f"series {name}": [(series, "appendixA_series")]
       for name in cli.SERIES_NAMES},
    **{f"series {name}": [(series, "gf")] for name in cli.GF_FAMILIES},
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
        huge = max(100_000, 10 * largest)
        refused = [(largest + 1, f"<= {largest}"), (huge, f"<= {largest}")]
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


def _refuses_series_above_the_cap(capsys, monkeypatch, names, module, work,
                                  cap, reason):
    # each name of a group shares the group's cap; an order above it is
    # refused before the work function runs, which then lists a small
    # stand-in series at the cap
    def no_work(*args, **kwargs):
        raise AssertionError("series ran before rejecting its order")

    small = series.gf(words.Family.Wminus, "t", 1)
    for name in names:
        assert cli.LIMITS[f"series {name}", "order"] == (0, cap, reason)
        monkeypatch.setattr(module, work, no_work)
        for fmt in ("text", "json"):
            rc = cli.main(["--format", fmt, "series", name, "--order",
                           str(cap + 1)])
            captured = capsys.readouterr()
            assert (rc, captured.out, captured.err) == (
                2, "", f"error: series {name} needs --order <= {cap}: "
                       f"{reason}\n")
        monkeypatch.setattr(module, work, lambda *args, **kwargs: small)
        assert cli.main(["series", name, "--order", str(cap)]) == 0
        assert capsys.readouterr().out == "[1] W[0]\n[t^1] W[-1]\n"
        monkeypatch.undo()


def test_series_z_above_its_order_cap_is_usage_error(capsys, monkeypatch):
    _refuses_series_above_the_cap(
        capsys, monkeypatch, ["Z"], central, "z_series", 56,
        "its cost grows faster than the fourth power of the order")


def test_named_series_above_their_order_cap_are_usage_errors(capsys,
                                                            monkeypatch):
    # G names the generating function, so `series` lists 17 of the 18
    assert cli.SERIES_NAMES == tuple(
        n for n in series.APPENDIX_A_NAMES if n != "G")
    _refuses_series_above_the_cap(
        capsys, monkeypatch, cli.SERIES_NAMES, series,
        "appendixA_series", 192,
        "its cost grows about as the cube of the order")


def test_generating_functions_above_their_order_cap_are_usage_errors(
        capsys, monkeypatch):
    _refuses_series_above_the_cap(
        capsys, monkeypatch, ["W-", "W+", "G", "Gt"], series, "gf", 400_000,
        "it lists one coefficient per power of the variable")


def test_series_with_fixed_variables_refuse_another_var(capsys,
                                                        monkeypatch):
    # Z lists in t and A..S in s and t whatever --var says, so a --var
    # other than t is refused before any series is built
    def no_work(*args, **kwargs):
        raise AssertionError("series ran before rejecting its variable")

    monkeypatch.setattr(central, "z_series", no_work)
    monkeypatch.setattr(series, "appendixA_series", no_work)
    for name, var in (("Z", "r"), ("A", "z"), ("Q", "s")):
        for fmt in ("text", "json"):
            rc = cli.main(["--format", fmt, "series", name, "--var", var])
            captured = capsys.readouterr()
            assert (rc, captured.out, captured.err) == (
                2, "", f"error: series {name} takes only --var t; the other "
                       f"variables are for W-, W+, G and Gt\n")
    monkeypatch.undo()
    assert cli.main(["series", "W-", "--order", "1", "--var", "s"]) == 0
    assert capsys.readouterr().out == "[1] W[0]\n[s^1] W[-1]\n"
    assert cli.main(["series", "A", "--order", "0", "--var", "t"]) == 0


def test_generating_functions_refuse_an_unknown_var_before_any_work(
        capsys, monkeypatch):
    # an unknown variable is refused before the first coefficient is built,
    # even at the largest order accepted
    def no_work(*args, **kwargs):
        raise AssertionError("a coefficient was built before the variable "
                             "was checked")

    monkeypatch.setattr(series, "family_element", no_work)
    for name in cli.GF_FAMILIES:
        rc = cli.main(["series", name, "--order", "400000", "--var", "z"])
        captured = capsys.readouterr()
        assert (rc, captured.out, captured.err) == (
            2, "", "error: unknown indeterminate 'z'\n")


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
    # the tokens end with None, at the column of the text's end; an atom is
    # one token at the column of its first symbol
    text = " W[12] *\tGt[3]q^-3 \n"
    assert list(zip(cli._tokenize(text), cli._columns(text))) == [
        ("W[12]", 1), ("*", 7), ("Gt[3]", 9), ("q^-3", 14), (None, len(text))]
    # blanks, a sign and five digits leave the one-symbol tokens
    text = "W [+1]*q^12345/[-2]q"
    assert list(zip(cli._tokenize(text), cli._columns(text))) == [
        ("W", 0), ("[", 2), ("+", 3), ("1", 4), ("]", 5), ("*", 6), ("q", 7),
        ("^", 8), ("12345", 9), ("/", 14), ("[", 15), ("-", 16), ("2", 17),
        ("]", 18), ("q", 19), (None, len(text))]
    assert cli._tokenize("") == cli._tokenize(" \t") == [None]


@pytest.mark.parametrize("text,message", [
    ("x", "unexpected character 'x' (at column 1)"),
    ("W[1]*$", "unexpected character '$' (at column 6)"),
    ("W[1] +é+ $", "unexpected character 'é' (at column 7)"),
    ("W[1] $", "unexpected character '$' (at column 6)"),
])
def test_an_unknown_character_is_a_parse_error(capsys, text, message):
    rc = cli.main(["normalize", text])
    captured = capsys.readouterr()
    assert (rc, captured.out) == (2, "")
    assert captured.err == f"parse error: {message}\n"


# 5,000 digits is past the interpreter's default limit of 4,300 digits for
# int(str), which would otherwise escape the parser as a bare ValueError;
# the test sets that limit, which PYTHONINTMAXSTRDIGITS can change
_LONG = "1" * 5000


@pytest.mark.parametrize("text,message", [
    (_LONG, "integer of 5000 digits is too long (at column 1)"),
    (f"W[1] + 2*{_LONG}", "integer of 5000 digits is too long (at column 10)"),
    (f"q^{_LONG}", "integer of 5000 digits is too long (at column 3)"),
    (f"q^-{_LONG}", "integer of 5000 digits is too long (at column 4)"),
    (f"W[{_LONG}]", "integer of 5000 digits is too long (at column 3)"),
    (f"[{_LONG}]q", "integer of 5000 digits is too long (at column 2)"),
])
def test_an_integer_beyond_the_digit_limit_is_a_parse_error(capsys, text,
                                                             message):
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        rc = cli.main(["normalize", text])
    finally:
        sys.set_int_max_str_digits(limit)
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


# Outcomes recorded from the parser before it read letters by lookahead,
# kept since; an atom is a letter written without blanks, with an optional
# `-` (W only) and at most four digits, and every other shape takes the
# general path.
@pytest.mark.parametrize("text,outcome,read_as_one_atom", [
    ("W[9999]", "W[9999]", True),
    ("W[-9999]", "W[-9999]", True),
    ("W[10000]", "W[10000]", False),
    ("W[10001]", "ParseError: W[10001]: subscript beyond 10000 in absolute "
                 "value (at column 3)", False),
    ("W[-10001]", "ParseError: W[-10001]: subscript beyond 10000 in absolute "
                  "value (at column 3)", False),
    ("G[0]", "(-q^6 - q^4 + q^2 + 1)*q^-3", True),
    ("Gt[-1]", "ParseError: Gt[-1]: negative subscript (at column 4)", False),
    ("G[-0]", "(-q^6 - q^4 + q^2 + 1)*q^-3", False),
    ("W [ 1 ]", "W[1]", False),
    ("W[+1]", "W[1]", False),
    ("W[01]", "W[1]", True),
    ("W[-0]", "W[0]", True),
    ("Gt[0009]", "Gt[9]", True),
    ("G[1", "ParseError: unexpected end of input (at column 4)", False),
    ("W[-1", "ParseError: unexpected end of input (at column 5)", False),
    ("W[1]]", "ParseError: trailing input ']' (at column 5)", True),
    ("W[1]/W[1]", "ParseError: division by a non-scalar expression "
                  "(at column 5)", True),
])
def test_letter_lookahead_edges(text, outcome, read_as_one_atom):
    cli._ATOMS.clear()
    try:
        got = render_poly(cli.parse_to_poly(text))
    except cli.ParseError as exc:
        got = f"ParseError: {exc}"
    assert got == outcome
    assert bool(cli._ATOMS) == read_as_one_atom


def test_letter_terms_are_not_changed_by_their_uses():
    w1 = NCPoly.gen(wp(1))
    for text, expected in (("W[1] + W[1]", w1 * 2), ("-W[1] - W[1]", w1 * -2),
                           ("W[1]*W[1] + W[1]", w1 * w1 + w1),
                           ("W[1]/2 + G[0]*W[1]", w1 * (qf.of(Fraction(1, 2))
                                                        + qf.G0))):
        assert cli.parse_to_poly(text) == expected
        assert cli.parse_to_poly("W[1]") == w1
    assert cli._ATOMS["W[1]"] == (((wp(1),), qf.QONE),)


# The four messages that quote a token quote an atom by its first symbol,
# as they did when every symbol was a token; outcomes recorded from the
# parser before atoms.  Each text holds the atom quoted.
@pytest.mark.parametrize("text,atom,message", [
    ("(W[1] W[2])", "W[2]", "expected ')', got 'W' (at column 7)"),
    ("[2]W[1]", "W[1]", "expected 'q', got 'W' (at column 4)"),
    ("Gt q^2", "q^2", "expected '[', got 'q' (at column 4)"),
    ("([3]q [2]q)", "[2]q", "expected ')', got '[' (at column 7)"),
    ("W[1] W[2]", "W[2]", "trailing input 'W' (at column 6)"),
    ("G[1] Gt[2]", "Gt[2]", "trailing input 'Gt' (at column 6)"),
    ("2 q^-3", "q^-3", "trailing input 'q' (at column 3)"),
    ("q^2 [3]q", "[3]q", "trailing input '[' (at column 5)"),
    ("q^W[1]", "W[1]", "expected an integer, got 'W' (at column 3)"),
    ("W[q^2]", "q^2", "expected an integer, got 'q' (at column 3)"),
    ("[[2]q]q", "[2]q", "expected an integer, got '[' (at column 2)"),
    ("G[Gt[1]]", "Gt[1]", "expected an integer, got 'Gt' (at column 3)"),
])
def test_an_error_quotes_an_atom_by_its_first_symbol(text, atom, message):
    assert atom in cli._tokenize(text)
    with pytest.raises(cli.ParseError) as exc:
        cli.parse_to_poly(text)
    assert str(exc.value) == message


def test_unexpected_token_quotes_through_the_same_helper():
    # `factor` reads every atom, so no atom reaches "unexpected token"; the
    # message quotes through the helper all the same
    assert [cli._shown(t) for t in ("W[-3]", "G[1]", "Gt[2]", "q^-1", "[2]q",
                                    "12", "Gt", "*")] == [
        "'W'", "'G'", "'Gt'", "'q'", "'['", "'12'", "'Gt'", "'*'"]
    for text, message in (("W[1]*]", "unexpected token ']' (at column 6)"),
                          ("W[1]**W[2]", "unexpected token '*' (at column 6)"),
                          ("(/q)", "unexpected token '/' (at column 2)")):
        with pytest.raises(cli.ParseError) as exc:
            cli.parse_to_poly(text)
        assert str(exc.value) == message


# Shapes that are no atom take the general path, one symbol a token, and
# enter nothing in the atom table; outcomes recorded from the parser before
# atoms.
@pytest.mark.parametrize("text,outcome", [
    ("W [ 1 ]", "W[1]"),
    ("W[10000]", "W[10000]"),
    ("q^12345", "ParseError: exponent or quantum integer beyond 10000 in "
                "absolute value (at column 3)"),
    ("[-2]q", "(-q^2 - 1)*q^-1"),
    ("q ^ 2", "(q^2)"),
    ("[ 2 ]q", "(q^2 + 1)*q^-1"),
    ("q^+2", "(q^2)"),
    ("[12345]q", "ParseError: exponent or quantum integer beyond 10000 in "
                 "absolute value (at column 2)"),
])
def test_shapes_that_are_no_atom_take_the_general_path(text, outcome):
    cli._ATOMS.clear()
    assert all(len(t) <= 2 or t.isdigit() for t in cli._tokenize(text)[:-1])
    try:
        got = render_poly(cli.parse_to_poly(text))
    except cli.ParseError as exc:
        got = f"ParseError: {exc}"
    assert got == outcome
    assert cli._ATOMS == {}


# (text, outcome, products folded): a one-term value takes a run of `*letter`
# atoms at once, and any other factor (a scalar, a parenthesis, a letter
# split by blanks) or a `/` ends the run and takes the left-to-right fold.
# Outcomes recorded from the parser before atoms.
@pytest.mark.parametrize("text,outcome,products", [
    ("W[1]*W[2]*W[3]*W[4]", "W[1]*W[2]*W[3]*W[4]", 0),
    ("q*W[1]*W[2]/2*W[3]", "(q)/(2)*W[1]*W[2]*W[3]", 0),
    ("W[1]*W[2]*(q)*W[3]", "(q)*W[1]*W[2]*W[3]", 1),
    ("W[1]*W [2]*W[3]", "W[1]*W[2]*W[3]", 1),
    ("3*W[1]*W[2]*q^2*W[-1]", "(3*q^2)*W[1]*W[2]*W[-1]", 1),
    ("W[1]*G[0]*W[2]", "(-q^6 - q^4 + q^2 + 1)*q^-3*W[1]*W[2]", 1),
    ("W[1]*W[2]*[2]q*W[3]", "(q^2 + 1)*q^-1*W[1]*W[2]*W[3]", 1),
    ("(W[1]+W[2])*W[0]*G[1]", "W[1]*W[0]*G[1] + W[2]*W[0]*G[1]", 2),
    ("W[1]*W[2]W[3]", "ParseError: trailing input 'W' (at column 10)", 0),
    ("W[1]*W[2]*", "ParseError: unexpected end of input (at column 11)", 0),
])
def test_a_run_of_letters_ends_at_any_other_token(monkeypatch, text, outcome,
                                                  products):
    def parsed():
        try:
            return render_poly(cli.parse_to_poly(text))
        except cli.ParseError as exc:
            return f"ParseError: {exc}"

    assert parsed() == outcome   # and every letter is now in the table
    folded = []
    product = cli._product
    monkeypatch.setattr(cli, "_product",
                        lambda a, b: folded.append(b) or product(a, b))
    assert parsed() == outcome
    assert len(folded) == products


_BENCH_LETTERS = ([f"W[{n}]" for n in range(-3, 5)]
                  + [f"{fam}[{n}]" for fam in ("G", "Gt") for n in range(1, 5)])
_BENCH_SCALARS = st.one_of(
    st.integers(1, 9).map(str), st.integers(-3, 3).map(lambda k: f"q^{k}"),
    st.integers(2, 4).map(lambda n: f"[{n}]q"),
    st.just("(q - q^-1)"), st.just("1/(q^2 + q^-2)"))
# a letter as an atom, or split by a blank onto the general path
_LETTER_TEXTS = st.tuples(st.sampled_from(_BENCH_LETTERS), st.booleans()).map(
    lambda pair: pair[0].replace("[", " [") if pair[1] else pair[0])


@settings(max_examples=100, deadline=None)
@given(terms=st.lists(st.tuples(_BENCH_SCALARS,
                                st.lists(_LETTER_TEXTS, min_size=2,
                                         max_size=4)),
                      min_size=1, max_size=3))
def test_benchmark_shaped_expressions_parse_as_the_fold_of_their_factors(terms):
    text = " + ".join("*".join([scalar, *letters]) for scalar, letters in terms)
    value = NCPoly()
    for scalar, letters in terms:
        product = cli.parse_to_poly(scalar)
        for letter in letters:
            product = product * cli.parse_to_poly(letter)
        value = value + product
    assert cli.parse_to_poly(text) == value


def test_the_atom_table_stops_at_its_cap(monkeypatch):
    monkeypatch.setattr(cli, "_ATOMS", {})
    monkeypatch.setattr(cli, "_ATOMS_SIZE", 3)
    text = "q^2*W[1]*G[2] + [3]q*Gt[1]*W[1]*W[-2]"
    expected = (NCPoly.word((wp(1), g_(2)), qf.q_pow(2))
                + NCPoly.word((gt_(1), wp(1), wm(2)), qf.q_int(3)))
    assert cli.parse_to_poly(text) == expected
    assert list(cli._ATOMS) == ["q^2", "W[1]", "G[2]"]
    # past the cap an atom is still read right, and a table atom reads back
    assert cli.parse_to_poly(text) == expected
    assert cli.parse_to_poly("W[-2]*W[1]") == NCPoly.word((wm(2), wp(1)))
    assert list(cli._ATOMS) == ["q^2", "W[1]", "G[2]"]


def test_the_atom_table_keeps_no_large_coefficient(monkeypatch):
    # [5000]q has len(U) + len(V) = 9,998: like qfield's memos, the table
    # keeps no coefficient past qfield._MEMO_CAP, whatever room it has
    monkeypatch.setattr(cli, "_ATOMS", {})
    for _ in range(2):
        assert cli.parse_to_poly("[5000]q*W[1]") == NCPoly.word(
            (wp(1),), qf.q_int(5000))
        assert cli.parse_to_poly("[3]q*W[1]") == NCPoly.word(
            (wp(1),), qf.q_int(3))
        assert "[5000]q" not in cli._ATOMS
        assert set(cli._ATOMS) == {"[3]q", "W[1]"}


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
           qf.q_int(3), qf.q_int(-2) * qf.q_pow(5), qf.G0,
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


def test_a_sum_is_combined_when_its_parenthesis_closes():
    # kept uncombined, the first product would hold 4^10 terms and the
    # second 2^30; each combined value is small and parses at once
    w = wp(1)
    binomial = NCPoly({(w,) * (2 * k): (-1) ** k * math.comb(10, k)
                       for k in range(11)})
    for text, value in (("*".join(["((1 + W[1])*(1 - W[1]))"] * 10), binomial),
                        ("*".join(["(W[1] - W[1])"] * 30), NCPoly())):
        start = time.perf_counter()
        assert cli.parse_to_poly(text) == value
        assert time.perf_counter() - start < 1.0
    assert len(binomial.terms) == 11


# An expression tree as (text, value, level), its value built by NCPoly
# arithmetic: level 0 is a sum, 1 a product and 2 a factor, and a child
# below the level of its slot is parenthesized.  Few letters, so that words
# repeat across terms.
def _slot(tree, level):
    text, _, own = tree
    return text if own >= level else f"({text})"


def _sum(a, b):
    return f"{a[0]} + {_slot(b, 1)}", a[1] + b[1], 0


def _difference(a, b):
    return f"{a[0]} - {_slot(b, 1)}", a[1] - b[1], 0


def _negation(a):
    return f"-{_slot(a, 1)}", -a[1], 0


def _cancelled(a):
    return f"{a[0]} - ({a[0]})", a[1] - a[1], 0


def _product(a, b):
    return f"{_slot(a, 1)}*{_slot(b, 2)}", a[1] * b[1], 1


def _quotient(a, s):
    return f"{_slot(a, 1)}/{_slot(s, 2)}", a[1] * s[1].inverse(), 1


# the five scalar forms of the benchmark's normalize stream, as
# (text, Q(q) value, level)
_SCALAR_TREES = st.one_of(
    st.integers(0, 9).map(lambda i: (str(i), qf.of(i), 2)),
    st.integers(-3, 3).map(lambda k: (f"q^{k}", qf.q_pow(k), 2)),
    st.integers(2, 4).map(lambda n: (f"[{n}]q", qf.q_int(n), 2)),
    st.just(("(q - q^-1)", qf.Q - qf.q_pow(-1), 2)),
    st.just(("1/(q^2 + q^-2)", (qf.q_pow(2) + qf.q_pow(-2)).inverse(), 1)))
_TREES = st.recursive(
    st.one_of(st.sampled_from([wm(0), wp(1), g_(1), gt_(2)]).map(
                  lambda g: (g.text(), NCPoly.gen(g), 2)),
              _SCALAR_TREES.map(lambda s: (s[0], NCPoly.scalar(s[1]), s[2]))),
    lambda trees: st.one_of(
        st.builds(_sum, trees, trees), st.builds(_difference, trees, trees),
        st.builds(_negation, trees), st.builds(_cancelled, trees),
        st.builds(_product, trees, trees),
        st.builds(_quotient, trees, _SCALAR_TREES.filter(lambda s: s[1]))),
    max_leaves=10)


@settings(max_examples=200, deadline=None)
@given(tree=_TREES)
def test_the_parser_agrees_with_ncpoly_arithmetic(tree):
    text, value, _ = tree
    assert cli.parse_to_poly(text) == value
