"""Command-line front end: expression normalization and the check suites.

Exit codes: 0 all requested checks pass, 1 a check failed or none ran,
2 usage or parse error (a negative size or bound, and one outside its
range in LIMITS, is a usage error refused before any work),
3 internal error: an invariant of the kernel failed, which is a bug and
not a fault of the input; stderr then starts with "internal error:",
141 stdout was closed before the output was complete (a broken pipe, as
in `qonsager series W- --order 3000 | head -1`); a shell reports the same
code for a process that SIGPIPE ended.
JSON output follows the schema
{command, parameters, results: [{name, pass, detail}], version}.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import re
import sys
from typing import List, Optional, Tuple

from . import __version__, central, dims, qfield, rewrite, series
from .series import Report
from .words import Family, NCPoly, render_poly, symbol_from_subscript


class ParseError(ValueError):
    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at column {pos + 1})")
        self.pos = pos


_TOKEN_RE = re.compile(r"\s*(\d+|Gt|G|W|q|\^|\[|\]|\(|\)|\+|-|\*|/)")


def _tokenize(text: str) -> List[Tuple[str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise ParseError(f"unexpected character {text[pos]!r}", pos)
            break
        tokens.append((m.group(1), m.start(1)))
        pos = m.end()
    return tokens


# Deepest parenthesis nesting accepted; each level takes three stack
# frames of the recursive descent, so this stays far below the
# interpreter's recursion limit.
MAX_PAREN_DEPTH = 200

# Largest |n| accepted in q^n, [n]q and letter subscripts: a sum builds
# dense polynomials with about |n| (for [n]q, 2|n|) coefficients, and the
# rule for W[i]*G[j] has min(i, j) + 1 groups of terms.
MAX_EXPONENT = 10_000


class _Parser:
    """Recursive descent that evaluates as it parses: sums and products
    fold left to right in loops, and only parentheses recurse."""

    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0
        self.depth = 0

    def peek(self) -> Optional[str]:
        return self.tokens[self.i][0] if self.i < len(self.tokens) else None

    def pos(self) -> int:
        return self.tokens[self.i][1] if self.i < len(self.tokens) else len(self.text)

    def take(self, expected: Optional[str] = None) -> str:
        if self.i >= len(self.tokens):
            raise ParseError("unexpected end of input", len(self.text))
        tok, pos = self.tokens[self.i]
        if expected is not None and tok != expected:
            raise ParseError(f"expected {expected!r}, got {tok!r}", pos)
        self.i += 1
        return tok

    def parse(self) -> NCPoly:
        value = self.expr()
        if self.i < len(self.tokens):
            raise ParseError(f"trailing input {self.peek()!r}", self.pos())
        return value

    def expr(self) -> NCPoly:
        if self.peek() == "-":
            self.take()
            value = -self.term()
        else:
            value = self.term()
        while self.peek() in ("+", "-"):
            op = self.take()
            rhs = self.term()
            value = value + rhs if op == "+" else value - rhs
        return value

    def term(self) -> NCPoly:
        value = self.factor()
        while self.peek() in ("*", "/"):
            pos = self.pos()
            op = self.take()
            rhs = self.factor()
            if op == "*":
                value = value * rhs
            elif not rhs.is_scalar():
                raise ParseError("division by a non-scalar expression", pos)
            elif rhs.is_zero():
                raise ParseError("division by zero", pos)
            else:
                value = value * rhs.scalar_part().inverse()
        return value

    def _signed_int(self) -> int:
        sign = 1
        if self.peek() == "-":
            self.take()
            sign = -1
        elif self.peek() == "+":
            self.take()
        tok = self.take()
        if not tok.isdigit():
            raise ParseError(f"expected an integer, got {tok!r}",
                             self.tokens[self.i - 1][1])
        return sign * int(tok)

    def _exponent(self) -> int:
        pos = self.pos()
        n = self._signed_int()
        if abs(n) > MAX_EXPONENT:
            raise ParseError(f"exponent or quantum integer beyond "
                             f"{MAX_EXPONENT} in absolute value", pos)
        return n

    def factor(self) -> NCPoly:
        tok = self.peek()
        if tok == "(":
            if self.depth == MAX_PAREN_DEPTH:
                raise ParseError(f"parentheses nested deeper than "
                                 f"{MAX_PAREN_DEPTH}", self.pos())
            self.take()
            self.depth += 1
            value = self.expr()
            self.depth -= 1
            self.take(")")
            return value
        if tok in ("W", "G", "Gt"):
            fam = self.take()
            self.take("[")
            pos = self.pos()
            n = self._signed_int()
            self.take("]")
            if fam in ("G", "Gt") and n < 0:
                raise ParseError(f"{fam}[{n}]: negative subscript", pos)
            if abs(n) > MAX_EXPONENT:
                raise ParseError(f"{fam}[{n}]: subscript beyond {MAX_EXPONENT} "
                                 f"in absolute value", pos)
            return NCPoly.symbol(symbol_from_subscript(fam, n))
        if tok == "q":
            self.take()
            if self.peek() == "^":
                self.take()
                return NCPoly.scalar(qfield.q_pow(self._exponent()))
            return NCPoly.scalar(qfield.Q)
        if tok == "[":
            self.take()
            n = self._exponent()
            self.take("]")
            self.take("q")
            return NCPoly.scalar(qfield.q_int(n))
        if tok is None:
            raise ParseError("unexpected end of input", self.pos())
        if tok.isdigit():
            self.take()
            return NCPoly.scalar(qfield.of(int(tok)))
        raise ParseError(f"unexpected token {tok!r}", self.pos())


def parse_to_poly(text: str) -> NCPoly:
    """Parse an expression into a free-algebra element (left-to-right
    products)."""
    return _Parser(text).parse()


# -- suite plumbing -----------------------------------------------------------


def run_ambiguity_suite(bound: int) -> Report:
    report = Report("ambiguities")
    overlaps = rewrite.enumerate_overlaps(bound)
    agreed = [rewrite.check_overlap(w).agrees for w in overlaps]
    for w, ok in sorted(zip(overlaps, agreed),
                        key=lambda pair: render_overlap(pair[0])):
        report.add(render_overlap(w), ok, "" if ok else "normal forms differ")
    return report


def render_overlap(w) -> str:
    return "*".join(g.text() for g in w)


def run_relation_suite(bound: int) -> Report:
    from .words import defining_relations
    report = Report("relations")
    for name, poly in defining_relations(bound):
        nf = rewrite.normal_form(poly)
        report.add(name, nf.is_zero(), "" if nf.is_zero() else "nonzero residue")
    return report


# Each check suite: its runner and the parameters it reports, with their
# defaults.  The runners look their functions up when called, so a wrapper
# set on a module afterwards still sees each call.
CHECKS = {
    "relations": (lambda bound: run_relation_suite(bound), {"bound": 3}),
    "ambiguities": (lambda bound: run_ambiguity_suite(bound), {"bound": 3}),
    "gf": (lambda order: series.check_gf_relations(order), {"order": 4}),
    "central": (lambda n, bound: Report("central", [
                    r for k in range(n + 1)
                    for r in central.check_central(k, bound).results]),
                {"n": 4, "bound": 6}),
    "dolan-grady": (lambda: central.check_dolan_grady(), {}),
    "matrix": (lambda order: central.check_matrix_factorization(order),
               {"order": 4}),
    "appendix-b": (lambda: central.check_appendix_b(), {}),
    "prop41": (lambda order: series.check_prop41_decompositions(order),
               {"order": 4}),
}

# (command, parameter) -> (least, largest, reason): a value outside the
# range is refused before any work starts.  Each largest value is the
# largest measured to stay under about a minute and 1 GB peak RSS on 2 vCPUs
# (times and peak RSS of one cold CLI run in the comments); every size
# parameter has a row.  `series --order` has none: its cost depends on the
# series named, from 2 s at order 100,000 for W- to over 90 s at order 64
# for Z (4.3 s and 70 MB at order 32).
LIMITS = {
    # the relation list grows with the square of the bound: bound 24 took
    # 2.8 s and 57 MB peak RSS, bound 40 11 s and 176 MB, bound 64 33 s and
    # 618 MB; a larger bound is refused before the list is built (bound
    # 100,000 ran out of memory)
    ("check relations", "bound"): (
        0, 64, "its relation list grows with the square of the bound"),
    # all C(4(b + 1), 3) overlaps are checked: bound 10 (13,244 overlaps)
    # took 68 s and 516 MB peak RSS on 2 vCPUs, and each further step takes
    # about 1.5 times the memory, so bound 12 would pass 1 GB; a larger bound
    # is refused before the overlap list is built (bound 100,000 would have
    # about 10^16)
    ("check ambiguities", "bound"): (
        0, 10, "it checks all C(4(bound + 1), 3) overlaps"),
    # no letter has an index below 0, so bound 0 would check nothing; at
    # --n 4, bound 500 took 18 s and 212 MB, bound 1000 37 s and 412 MB.
    # Each cap of `check central` is measured at the other's default; the
    # pair is not capped: n 14 with bound 100 took 103 s and 1.1 GB.
    ("check central", "bound"): (
        1, 1000, "it checks the letters with index below the bound"),
    # at --bound 6: n 20 took 31 s and 140 MB, n 22 48 s and 179 MB, n 24
    # 78 s and 213 MB
    ("check central", "n"): (
        0, 22, "it checks each of Z_0 to Z_n against every letter"),
    # order 32 took 13 s and 102 MB, order 48 41 s and 282 MB, order 60 72 s
    # and 521 MB
    ("check gf", "order"): (
        0, 48, "its cost grows about as the cube of the order"),
    # order 36 took 7 s and 32 MB, order 64 33 s and 68 MB, order 96 91 s
    # and 122 MB
    ("check prop41", "order"): (
        0, 64, "its cost grows faster than the square of the order"),
    # order 32 took 35 s and 212 MB, order 36 55 s and 269 MB, order 40 86 s
    # and 375 MB
    ("check matrix", "order"): (
        0, 36, "its cost grows about as the fourth power of the order"),
    # n 50 took 16 s and 157 MB, n 64 43 s and 318 MB, n 80 97 s and 612 MB
    ("zn", "n"): (0, 64, "its cost grows about as the fourth power of n"),
    # n 40 took 11 s and 109 MB, n 56 48 s and 219 MB, n 60 68 s and 243 MB
    ("recover", "n"): (
        0, 56, "it builds Z_1 to Z_n and every generator up to level n"),
    # degree 29 took 8.4 s and 81 MB, degree 32 22 s and 168 MB, degree 34
    # 43 s and 289 MB: each degree costs about 1.4 times the one before
    ("dims", "max_degree"): (
        0, 34, "the number of words grows exponentially with the degree"),
}


def _check_limits(command: str, parameters: dict) -> dict:
    """Raise ValueError for a parameter outside its LIMITS row; else return
    the parameters."""
    for name, value in parameters.items():
        least, largest, reason = LIMITS[command, name]
        option = "--" + name.replace("_", "-")
        if value < least:
            raise ValueError(f"{command} needs {option} >= {least}: {reason}")
        if value > largest:
            raise ValueError(f"{command} needs {option} <= {largest}: {reason}")
    return parameters


# -- command handlers ----------------------------------------------------------


def _verdicts(command: str, report: Report) -> List[str]:
    lines = [f"{'ok  ' if r.passed else 'FAIL'} {r.name}"
             f"{f'  {r.detail}' if r.detail else ''}" for r in report.results]
    n_fail = len(report.failures())
    return lines + [f"{command}: {len(report.results) - n_fail}/"
                    f"{len(report.results)} passed"]


def _emit(args, command: str, parameters: dict, report: Report,
          text: Optional[List[str]] = None, code: Optional[int] = None,
          **fields) -> int:
    """Print a command's output and return its exit code.  JSON is the
    common schema plus fields; text is the given lines, else the report's
    verdicts.  The code defaults to 0 if the report passes, else 1."""
    if args.format == "json":
        payload = {
            "command": command,
            "parameters": parameters,
            "results": [{"name": r.name, "pass": r.passed, "detail": r.detail}
                        for r in report.results],
            "version": __version__,
            **fields,
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in _verdicts(command, report) if text is None else text:
            print(line)
    return (0 if report.passed else 1) if code is None else code


def cmd_normalize(args) -> int:
    text = sys.stdin.read() if args.expr == "-" else args.expr
    rendered = render_poly(rewrite.normal_form(parse_to_poly(text)))
    report = Report("normalize")
    report.add("normalize", True, rendered)
    return _emit(args, "normalize", {"expr": args.expr}, report, text=[rendered])


def cmd_check(args) -> int:
    command = f"check {args.suite}"
    runner, defaults = CHECKS[args.suite]
    params = _check_limits(command, {
        name: default if getattr(args, name) is None else getattr(args, name)
        for name, default in defaults.items()})
    return _emit(args, command, params, runner(**params))


def cmd_zn(args) -> int:
    params = _check_limits("zn", {"n": args.n})
    direct, extraction = (central.z_n(args.n, route).as_poly
                          for route in ("direct", "extraction"))
    agree = direct == extraction
    report = Report("zn")
    report.add(f"routes agree for n={args.n}", agree)
    shown = render_poly(direct), render_poly(extraction)
    return _emit(args, "zn", params, report,
                 text=[f"direct:     {shown[0]}", f"extraction: {shown[1]}",
                       f"terms: {len(direct.terms)}  max degree: "
                       f"{direct.max_degree()}  routes agree: {agree}"],
                 n=args.n, term_count=len(direct.terms),
                 max_degree=direct.max_degree(), direct=shown[0],
                 extraction=shown[1])


def cmd_dims(args) -> int:
    params = _check_limits("dims", {"max_degree": args.max_degree})
    degrees = range(args.max_degree + 1)
    table = dims.hilbert_Aq(args.max_degree)
    counts = [len(dims.enumerate_irreducible(d)) for d in degrees]
    report = Report("dims")
    for d in degrees:
        report.add(f"degree {d}", counts[d] == table[d], str(counts[d]))
    return _emit(args, "dims", params, report,
                 text=["degree:    " + " ".join(map(str, degrees)),
                       "dimension: " + " ".join(map(str, counts))],
                 dimensions=counts, series=table)


def cmd_series(args) -> int:
    spec = args.name
    if spec in ("W-", "W+", "G", "Gt"):
        fam = {"W-": Family.Wminus, "W+": Family.Wplus,
               "G": Family.G, "Gt": Family.Gtilde}[spec]
        ts = series.gf(fam, args.var, args.order)
    elif spec in series.APPENDIX_A_NAMES:
        ts = series.appendixA_series(spec, order=args.order)
    elif spec == "Z":
        ts = central.z_series(args.order)
    else:
        raise ValueError(f"unknown series {spec!r}")
    report = Report("series")
    for e in ts.nonzero_exponents():
        mono = "*".join(f"{v}^{k}" for v, k in zip(ts.vars, e) if k)
        report.add(f"[{mono or '1'}]", True, render_poly(ts.coeffs[e]))
    # a listing, not a check: an empty one is not a failure, so the exit
    # code is 0 whatever the report holds
    return _emit(args, "series",
                 {"name": spec, "order": args.order, "var": args.var}, report,
                 text=[f"{r.name} {r.detail}" for r in report.results], code=0)


def cmd_recover(args) -> int:
    params = _check_limits("recover", {"n": args.n})
    table = central.recover_generators(args.n)
    report = central.check_recovery(args.n, table)
    lines = [f"{g.text()} = {render_poly(p)}" for g, p in sorted(table.items())]
    return _emit(args, "recover", params, report,
                 text=lines + _verdicts("recover", report))


def _non_negative_int(text: str) -> int:
    """argparse type for sizes and bounds: a non-negative integer."""
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an integer, got {text!r}") from None
    if n < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {n}")
    return n


def _accepted(command: str, name: str) -> str:
    least, largest, _ = LIMITS[command, name]
    return f"{least} to {largest}"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qonsager",
        description="PBW normal forms and verification suites for the "
                    "alternating central extension of the q-Onsager algebra")
    parser.add_argument("--format", choices=("text", "json"), default="text")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("normalize", help="print the PBW normal form")
    p.add_argument("expr", help="expression, or - to read stdin")
    p.set_defaults(func=cmd_normalize)

    p = sub.add_parser("check", help="run a verification suite")
    p.add_argument("suite", choices=tuple(CHECKS))
    for name, about in (
            ("bound", "index bound: relations and ambiguities take the indices "
                      "up to and including the bound, central the letters "
                      "with index below it"),
            ("order", "truncation order"),
            ("n", "the central suite checks Z_0 to Z_n")):
        accepted = "; ".join(
            f"{suite} {defaults[name]}, accepts {_accepted(f'check {suite}', name)}"
            for suite, (_, defaults) in CHECKS.items() if name in defaults)
        p.add_argument(f"--{name}", type=_non_negative_int,
                       help=f"{about} (default by suite: {accepted})")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("zn", help="print a central element both ways")
    p.add_argument("--n", type=_non_negative_int, default=4,
                   help=f"accepts {_accepted('zn', 'n')}")
    p.set_defaults(func=cmd_zn)

    p = sub.add_parser("dims", help="dimension table of the degree layers")
    p.add_argument("--max-degree", type=_non_negative_int, default=8,
                   help=f"accepts {_accepted('dims', 'max_degree')}")
    p.set_defaults(func=cmd_dims)

    p = sub.add_parser("series", help="print a generating-function expansion")
    p.add_argument("name", help="W-, W+, G, Gt, one of A..S, or Z")
    p.add_argument("--order", type=_non_negative_int, default=4)
    p.add_argument("--var", default="t")
    p.set_defaults(func=cmd_series)

    p = sub.add_parser("recover", help="rebuild generators from the central "
                                       "elements and the degree-one pair")
    p.add_argument("--n", type=_non_negative_int, default=3,
                   help=f"accepts {_accepted('recover', 'n')}")
    p.set_defaults(func=cmd_recover)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        # argparse drops a failed write of its help, so the help goes to a
        # buffer first, and the copy to stdout meets a closed pipe
        with contextlib.redirect_stdout(io.StringIO()) as shown:
            try:
                args = parser.parse_args(argv)
            except SystemExit as exc:
                args = None
                code = 2 if exc.code not in (0, None) else 0
        if args is None:
            sys.stdout.write(shown.getvalue())
        else:
            code = args.func(args)
        sys.stdout.flush()   # a closed pipe raises here, not at exit
        return code
    except BrokenPipeError:
        # the reader is gone: what is still buffered goes to devnull, so
        # the flush at exit cannot raise again; 141 = 128 + SIGPIPE
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except (KeyError, IndexError, RuntimeError, series.DivisibilityError) as exc:
        # RuntimeError includes RewriteInternalError, FloorUnderflowError and
        # WindowError; DivisibilityError is a ValueError no user input reaches
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
