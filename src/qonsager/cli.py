"""Command-line front end: expression normalization and the check suites.

Exit codes: 0 all requested checks pass, 1 a check failed or none ran,
2 usage or parse error (a negative size or bound is a usage error).
JSON output follows the schema
{command, parameters, results: [{name, pass, detail}], version}.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from typing import List, Optional, Tuple

from . import __version__, central, dims, qfield, rewrite, series
from .series import Report
from .words import Family, Generator, NCPoly, render_poly, symbol_from_subscript


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


# AST nodes: ("add", l, r) ("sub", l, r) ("mul", l, r) ("div", l, r)
#            ("neg", x) ("scalar", QRat) ("gen", Generator)
ExprAst = tuple


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self) -> Optional[str]:
        return self.tokens[self.i][0] if self.i < len(self.tokens) else None

    def pos(self) -> int:
        return self.tokens[self.i][1] if self.i < len(self.tokens) else len(self.text)

    def take(self, expected: Optional[str] = None) -> str:
        if self.i >= len(self.tokens):
            raise ParseError(f"unexpected end of input, expected {expected}",
                             len(self.text))
        tok, pos = self.tokens[self.i]
        if expected is not None and tok != expected:
            raise ParseError(f"expected {expected!r}, got {tok!r}", pos)
        self.i += 1
        return tok

    def parse(self) -> ExprAst:
        node = self.expr()
        if self.i < len(self.tokens):
            raise ParseError(f"trailing input {self.peek()!r}", self.pos())
        return node

    def expr(self) -> ExprAst:
        if self.peek() == "-":
            self.take()
            node: ExprAst = ("neg", self.term())
        else:
            node = self.term()
        while self.peek() in ("+", "-"):
            op = self.take()
            rhs = self.term()
            node = ("add" if op == "+" else "sub", node, rhs)
        return node

    def term(self) -> ExprAst:
        node = self.factor()
        while self.peek() in ("*", "/"):
            op = self.take()
            rhs = self.factor()
            node = ("mul" if op == "*" else "div", node, rhs)
        return node

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

    def factor(self) -> ExprAst:
        tok = self.peek()
        if tok == "(":
            self.take()
            node = self.expr()
            self.take(")")
            return node
        if tok in ("W", "G", "Gt"):
            fam = self.take()
            self.take("[")
            pos = self.pos()
            n = self._signed_int()
            self.take("]")
            if fam in ("G", "Gt") and n < 0:
                raise ParseError(f"{fam}[{n}]: negative subscript", pos)
            sym = symbol_from_subscript(fam, n)
            if isinstance(sym, Generator):
                return ("gen", sym)
            return ("scalar", sym)
        if tok == "q":
            self.take()
            if self.peek() == "^":
                self.take()
                return ("scalar", qfield.q_pow(self._signed_int()))
            return ("scalar", qfield.Q)
        if tok == "[":
            self.take()
            n = self._signed_int()
            self.take("]")
            self.take("q")
            return ("scalar", qfield.q_int(n))
        if tok is not None and tok.isdigit():
            self.take()
            return ("scalar", qfield.of(int(tok)))
        raise ParseError(f"unexpected token {tok!r}", self.pos())


def parse_expr(text: str) -> ExprAst:
    return _Parser(text).parse()


def elaborate(node: ExprAst) -> NCPoly:
    """Evaluate an AST to a free-algebra element (left-to-right products)."""
    kind = node[0]
    if kind == "scalar":
        return NCPoly.scalar(node[1])
    if kind == "gen":
        return NCPoly.gen(node[1])
    if kind == "neg":
        return -elaborate(node[1])
    left, right = elaborate(node[1]), elaborate(node[2])
    if kind == "add":
        return left + right
    if kind == "sub":
        return left - right
    if kind == "mul":
        return left * right
    if kind == "div":
        if not right.is_scalar():
            raise ParseError("division by a non-scalar expression", 0)
        return left * right.scalar_part().inverse()
    raise ValueError(f"bad AST node {kind!r}")


def parse_to_poly(text: str) -> NCPoly:
    return elaborate(parse_expr(text))


# -- suite plumbing -----------------------------------------------------------


def _worker_count() -> int:
    try:
        return max(1, int(os.environ.get("ONSAGER_WORKERS", "1")))
    except ValueError:
        return 1


def _overlap_agrees(w):
    rep = rewrite.check_overlap(w)
    return rep.agrees


def run_ambiguity_suite(bound: int) -> Report:
    report = Report("ambiguities")
    overlaps = rewrite.enumerate_overlaps(bound)
    workers = _worker_count()
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            agreed = list(pool.map(_overlap_agrees, overlaps, chunksize=16))
    else:
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


# -- command handlers ----------------------------------------------------------


def _emit(args, command: str, parameters: dict, report: Report,
          extra_lines: Optional[List[str]] = None) -> int:
    if args.format == "json":
        payload = {
            "command": command,
            "parameters": parameters,
            "results": [{"name": r.name, "pass": r.passed, "detail": r.detail}
                        for r in report.results],
            "version": __version__,
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in extra_lines or []:
            print(line)
        for r in report.results:
            mark = "ok  " if r.passed else "FAIL"
            detail = f"  {r.detail}" if r.detail else ""
            print(f"{mark} {r.name}{detail}")
        n_fail = len(report.failures())
        print(f"{command}: {len(report.results) - n_fail}/{len(report.results)} passed")
    return 0 if report.passed else 1


def cmd_normalize(args) -> int:
    text = sys.stdin.read() if args.expr == "-" else args.expr
    poly = parse_to_poly(text)
    nf = rewrite.normal_form(poly)
    report = Report("normalize")
    report.add("normalize", True, render_poly(nf))
    if args.format == "json":
        return _emit(args, "normalize", {"expr": args.expr}, report)
    print(render_poly(nf))
    return 0


def cmd_check(args) -> int:
    suite = args.suite
    # the index bound defaults to 3 for the rewrite suites and to 6 for
    # the centrality certificate
    bound = args.bound
    if bound is None:
        bound = 6 if suite == "central" else 3
    if suite == "relations":
        report = run_relation_suite(bound)
        params = {"bound": bound}
    elif suite == "ambiguities":
        report = run_ambiguity_suite(bound)
        params = {"bound": bound}
    elif suite == "gf":
        report = series.check_gf_relations(args.order)
        params = {"order": args.order}
    elif suite == "prop41":
        report = series.check_prop41_decompositions(args.order)
        params = {"order": args.order}
    elif suite == "central":
        report = Report("central")
        for n in range(args.n + 1):
            sub = central.check_central(n, bound)
            report.results.extend(sub.results)
        params = {"n": args.n, "bound": bound}
    elif suite == "dolan-grady":
        report = central.check_dolan_grady()
        params = {}
    elif suite == "matrix":
        report = central.check_matrix_factorization(args.order)
        params = {"order": args.order}
    elif suite == "appendix-b":
        report = central.check_appendix_b()
        params = {}
    else:
        raise ValueError(f"unknown suite {suite!r}")
    return _emit(args, f"check {suite}", params, report)


def cmd_zn(args) -> int:
    direct = central.z_n(args.n, "direct")
    extraction = central.z_n(args.n, "extraction")
    agree = direct.as_poly == extraction.as_poly
    report = Report("zn")
    report.add(f"routes agree for n={args.n}", agree)
    if args.format == "json":
        payload = {
            "command": "zn",
            "parameters": {"n": args.n},
            "n": args.n,
            "term_count": len(direct.as_poly.terms),
            "max_degree": direct.as_poly.max_degree(),
            "direct": render_poly(direct.as_poly),
            "extraction": render_poly(extraction.as_poly),
            "results": [{"name": r.name, "pass": r.passed, "detail": r.detail}
                        for r in report.results],
            "version": __version__,
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0 if agree else 1
    print(f"direct:     {render_poly(direct.as_poly)}")
    print(f"extraction: {render_poly(extraction.as_poly)}")
    print(f"terms: {len(direct.as_poly.terms)}  max degree: "
          f"{direct.as_poly.max_degree()}  routes agree: {agree}")
    return 0 if agree else 1


def cmd_dims(args) -> int:
    table = dims.hilbert_Aq(args.max_degree)
    counts = [len(dims.enumerate_irreducible(d)) for d in range(args.max_degree + 1)]
    report = Report("dims")
    for d in range(args.max_degree + 1):
        report.add(f"degree {d}", counts[d] == table[d], str(counts[d]))
    if args.format == "json":
        payload = {
            "command": "dims",
            "parameters": {"max_degree": args.max_degree},
            "dimensions": counts,
            "series": table,
            "results": [{"name": r.name, "pass": r.passed, "detail": r.detail}
                        for r in report.results],
            "version": __version__,
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0 if report.passed else 1
    print("degree:    " + " ".join(f"{d}" for d in range(args.max_degree + 1)))
    print("dimension: " + " ".join(str(c) for c in counts))
    return 0 if report.passed else 1


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
        print(f"unknown series {spec!r}", file=sys.stderr)
        return 2
    lines = []
    for e in ts.nonzero_exponents():
        mono = "*".join(f"{v}^{k}" for v, k in zip(ts.vars, e) if k)
        lines.append(f"[{mono or '1'}] {render_poly(ts.coeffs[e])}")
    if args.format == "json":
        payload = {
            "command": "series",
            "parameters": {"name": spec, "order": args.order, "var": args.var},
            "results": [{"name": line.split(' ', 1)[0], "pass": True,
                         "detail": line.split(' ', 1)[1]} for line in lines],
            "version": __version__,
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    for line in lines:
        print(line)
    return 0


def cmd_recover(args) -> int:
    report = central.check_recovery(args.n)
    table = central.recover_generators(args.n)
    lines = [f"{g.text()} = {render_poly(p)}" for g, p in sorted(table.items())]
    return _emit(args, "recover", {"n": args.n}, report, extra_lines=lines)


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
    p.add_argument("suite", choices=("relations", "ambiguities", "gf", "central",
                                     "dolan-grady", "matrix", "appendix-b",
                                     "prop41"))
    p.add_argument("--bound", type=_non_negative_int, default=None,
                   help="index bound (default 3; 6 for the central suite)")
    p.add_argument("--order", type=_non_negative_int, default=4)
    p.add_argument("--n", type=_non_negative_int, default=4)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("zn", help="print a central element both ways")
    p.add_argument("--n", type=_non_negative_int, default=4)
    p.set_defaults(func=cmd_zn)

    p = sub.add_parser("dims", help="dimension table of the degree layers")
    p.add_argument("--max-degree", type=_non_negative_int, default=8)
    p.set_defaults(func=cmd_dims)

    p = sub.add_parser("series", help="print a generating-function expansion")
    p.add_argument("name", help="W-, W+, G, Gt, one of A..S, or Z")
    p.add_argument("--order", type=_non_negative_int, default=4)
    p.add_argument("--var", default="t")
    p.set_defaults(func=cmd_series)

    p = sub.add_parser("recover", help="rebuild generators from the central "
                                       "elements and the degree-one pair")
    p.add_argument("--n", type=_non_negative_int, default=3)
    p.set_defaults(func=cmd_recover)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, IndexError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
