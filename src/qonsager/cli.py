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
import gc
import importlib
import io
import json
import os
import re
import sys
from typing import List, Optional

from . import __version__, qfield, rewrite
from .qfield import QONE
from .report import Report
from .words import (EMPTY_WORD, Family, Generator, NCPoly, render_poly,
                    render_word, symbol_from_subscript)


class ParseError(ValueError):
    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at column {pos + 1})")
        self.pos = pos


# a token (group 1), or else the first character that starts none (no group,
# so `findall` yields "" for it); the matches tile the text up to its
# trailing whitespace.  An atom comes first and is one token: a letter
# `W[n]`, `W[-n]`, `G[n]` or `Gt[n]`, a power `q^k` or `q^-k`, or a quantum
# integer `[n]q`, each written without blanks and with at most four digits
# (so never beyond MAX_EXPONENT).  Any other shape (`W [1]`, `W[+1]`,
# five digits, `G[-1]`, `q^12345`, `[-2]q`) is read one symbol a token.
_TOKEN_RE = re.compile(
    r"\s*(?:(W\[-?\d{1,4}\]|Gt?\[\d{1,4}\]|q\^-?\d{1,4}(?!\d)|\[\d{1,4}\]q"
    r"|\d+|Gt|G|W|q|\^|\[|\]|\(|\)|\+|-|\*|/)|\S)")

# the first symbol of a token: an error quotes an atom by it
_SYMBOL_RE = re.compile(r"\d+|Gt|.")


def _shown(tok: str) -> str:
    """A token as an error message quotes it: an atom by its first symbol
    (`W`, `G`, `Gt`, `q` or `[`), so that an error reads the same however
    the text was split into tokens."""
    return repr(_SYMBOL_RE.match(tok).group())


def _tokenize(text: str) -> List[Optional[str]]:
    """The tokens of text, then None for its end; a character that starts
    no token is a ParseError."""
    tokens = _TOKEN_RE.findall(text)
    if "" in tokens:
        m = list(_TOKEN_RE.finditer(text))[tokens.index("")]
        pos = m.end() - 1   # the character, not the blanks before it
        raise ParseError(f"unexpected character {text[pos]!r}", pos)
    tokens.append(None)
    return tokens


def _columns(text: str) -> List[int]:
    """The column of each token of a text that tokenizes, then the text's
    length, the column of its end; only an error needs one."""
    return [m.start(1) for m in _TOKEN_RE.finditer(text)] + [len(text)]


# Deepest parenthesis nesting accepted; each level takes three stack
# frames of the recursive descent, so this stays far below the
# interpreter's recursion limit.
MAX_PAREN_DEPTH = 200

# Largest |n| accepted in q^n, [n]q and letter subscripts: a sum builds
# dense polynomials with about |n| (for [n]q, 2|n|) coefficients, and the
# rule for W[i]*G[j] has min(i, j) + 1 groups of terms.
MAX_EXPONENT = 10_000


def _scalar(x: qfield.QRat) -> list:
    """The terms of the scalar x: none for zero."""
    return [(EMPTY_WORD, x)] if x else []


def _product(a, b) -> list:
    """The terms of a*b, for a and b with one term per word."""
    if len(a) == 1 and len(b) == 1:
        (u, c), = a
        (w, x), = b
        # a letter's coefficient is 1: no product to form
        return [(u + w, x if c is QONE else c if x is QONE else c * x)]
    return list(qfield.lincomb([(c, {u + w: x for w, x in b})
                                for u, c in a]).items())


def _combine(terms: list) -> dict:
    """The sum of terms, one coefficient per word, a cancelled word dropped."""
    combined = dict(terms)
    if len(combined) == len(terms):   # no word repeats: nothing to sum
        return combined
    return qfield.lincomb([(QONE, {w: c}) for w, c in terms])


# atom text -> the atom's terms, a tuple, so that no caller can change the
# shared terms.  An atom enters only while the table holds fewer than
# _ATOMS_SIZE entries, and only if its coefficient is as small as an entry
# of qfield's memos (`qfield.memo_sized`), so a `[n]q` of large n is built
# for each use.  Its values are fixed, so `rewrite.clear_caches` leaves it.
_ATOMS: dict = {}
_ATOMS_SIZE = 65536


def _letter_terms(family: str, n: int) -> tuple:
    """The terms of the symbol family[n], for a subscript in range."""
    s = symbol_from_subscript(family, n)
    return (((s,), QONE),) if isinstance(s, Generator) else tuple(_scalar(s))


def _atom_terms(atom: str) -> tuple:
    """The terms of an atom that `_ATOMS` does not hold, kept there while
    it has room and its coefficient is small."""
    if atom[0] == "q":
        terms = tuple(_scalar(qfield.q_pow(int(atom[2:]))))
    elif atom[0] == "[":
        terms = tuple(_scalar(qfield.q_int(int(atom[1:-2]))))
    else:
        bracket = atom.index("[")
        terms = _letter_terms(atom[:bracket], int(atom[bracket + 1:-1]))
    if len(_ATOMS) < _ATOMS_SIZE and all(qfield.memo_sized(c) for _, c in terms):
        _ATOMS[atom] = terms
    return terms


class _Parser:
    """Recursive descent that evaluates as it parses (syntax-directed
    translation): sums and products fold left to right in loops, and only
    parentheses recurse.

    A value is a list (or, for an atom, a shared tuple) of (word, nonzero
    coefficient) terms.  A product's value has one term per word: two
    one-term factors multiply to one term, with no product formed when
    either coefficient is 1, and any other product is combined by one
    `qfield.lincomb`.  A one-term value followed by a run of `*letter`
    atoms takes the whole run in one word concatenation; the run stops at
    any other token, so `/`, parentheses and scalars keep the fold.  A sum
    concatenates its summands' terms, and is combined once, when its `)`
    closes or, for the whole expression, at the end; so an operator costs
    no combine of its own.  The tokens are indexed in place, and a token's
    column is found only for a ParseError.

    An atom (see `_TOKEN_RE`) is one token, and its terms are read from
    `_ATOMS`; any other shape (`W[+1]`, five digits, `G[-1]`, a missing
    `]`) takes the general path, which parses the subscript or exponent and
    reports its errors.
    """

    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0
        self.depth = 0

    def error(self, message: str, i: Optional[int] = None) -> ParseError:
        """A ParseError at token i, by default the current one."""
        return ParseError(message, _columns(self.text)[self.i if i is None else i])

    def expect(self, expected: str) -> None:
        tok = self.tokens[self.i]
        if tok != expected:
            if tok is None:
                raise self.error("unexpected end of input")
            raise self.error(f"expected {expected!r}, got {_shown(tok)}")
        self.i += 1

    def parse(self) -> NCPoly:
        terms = self.expr()
        tok = self.tokens[self.i]
        if tok is not None:
            raise self.error(f"trailing input {_shown(tok)}")
        return NCPoly.from_terms(_combine(terms))   # the coefficients are QRats

    def expr(self) -> list:
        """A sum's terms, not yet combined."""
        tokens = self.tokens
        terms = []
        op = tokens[self.i]
        if op == "-":   # a leading minus
            self.i += 1
        while True:
            value = self.term()
            terms += [(w, -c) for w, c in value] if op == "-" else value
            op = tokens[self.i]
            if op != "+" and op != "-":
                return terms
            self.i += 1

    def term(self) -> list:
        tokens = self.tokens
        value = self.factor()
        while True:
            op = tokens[self.i]
            if op == "*":
                self.i += 1
                if len(value) == 1:
                    # a run of letters: atoms in `_ATOMS` whose one term
                    # has a word, and so coefficient 1 (a letter not yet
                    # there is read by `factor`, which enters it); only the
                    # last token is None, so a letter and a `*` have
                    # successors
                    i = self.i
                    run = []
                    letter = _ATOMS.get(tokens[i])
                    while letter and letter[0][0]:
                        run += letter[0][0]
                        i += 2
                        letter = tokens[i - 1] == "*" and _ATOMS.get(tokens[i])
                    if run:
                        self.i = i - 1
                        (u, c), = value
                        value = [(u + tuple(run), c)]
                        continue
                value = _product(value, self.factor())
            elif op == "/":
                slash = self.i
                self.i += 1
                rhs = self.factor()
                if any(w for w, _ in rhs):
                    raise self.error("division by a non-scalar expression", slash)
                if not rhs:
                    raise self.error("division by zero", slash)
                inverse = rhs[0][1].inverse()
                value = [(w, c * inverse) for w, c in value]
            else:
                return value

    def _signed_int(self) -> int:
        tokens = self.tokens
        sign = 1
        if tokens[self.i] == "-":
            self.i += 1
            sign = -1
        elif tokens[self.i] == "+":
            self.i += 1
        tok = tokens[self.i]
        if tok is None:
            raise self.error("unexpected end of input")
        if not tok.isdigit():
            raise self.error(f"expected an integer, got {_shown(tok)}")
        return sign * self._int()

    def _int(self) -> int:
        """The value of the current token, a run of digits, which it takes."""
        tok = self.tokens[self.i]
        try:
            n = int(tok)
        except ValueError:   # beyond the interpreter's integer digit limit
            raise self.error(f"integer of {len(tok)} digits is too long") from None
        self.i += 1
        return n

    def _exponent(self) -> int:
        at = self.i
        n = self._signed_int()
        if abs(n) > MAX_EXPONENT:
            raise self.error(f"exponent or quantum integer beyond "
                             f"{MAX_EXPONENT} in absolute value", at)
        return n

    def factor(self) -> list:
        """A factor's terms, one per word."""
        tok = self.tokens[self.i]
        terms = _ATOMS.get(tok)
        if terms is None and tok is not None and len(tok) > 2 and tok[0] in "WGq[":
            # an atom the table lacks: no other token that long starts so
            terms = _atom_terms(tok)
        if terms is not None:
            self.i += 1
            return terms
        if tok == "(":
            if self.depth == MAX_PAREN_DEPTH:
                raise self.error(f"parentheses nested deeper than "
                                 f"{MAX_PAREN_DEPTH}")
            self.i += 1
            self.depth += 1
            terms = self.expr()
            self.depth -= 1
            self.expect(")")
            return list(_combine(terms).items())
        if tok == "W" or tok == "G" or tok == "Gt":
            self.i += 1
            self.expect("[")
            at = self.i
            n = self._signed_int()
            self.expect("]")
            if tok != "W" and n < 0:
                raise self.error(f"{tok}[{n}]: negative subscript", at)
            if abs(n) > MAX_EXPONENT:
                raise self.error(f"{tok}[{n}]: subscript beyond {MAX_EXPONENT} "
                                 f"in absolute value", at)
            return _letter_terms(tok, n)
        if tok == "q":
            self.i += 1
            if self.tokens[self.i] == "^":
                self.i += 1
                return _scalar(qfield.q_pow(self._exponent()))
            return _scalar(qfield.Q)
        if tok == "[":
            self.i += 1
            n = self._exponent()
            self.expect("]")
            self.expect("q")
            return _scalar(qfield.q_int(n))
        if tok is None:
            raise self.error("unexpected end of input")
        if tok.isdigit():
            return _scalar(qfield.of(self._int()))
        raise self.error(f"unexpected token {_shown(tok)}")


def parse_to_poly(text: str) -> NCPoly:
    """Parse an expression into a free-algebra element (left-to-right
    products)."""
    return _Parser(text).parse()


# -- suite plumbing -----------------------------------------------------------


def run_ambiguity_suite(bound: int) -> Report:
    report = Report("ambiguities")
    overlaps = rewrite.enumerate_overlaps(bound)
    agreed = rewrite.resolve_overlaps(overlaps)
    for w, ok in sorted(zip(overlaps, agreed),
                        key=lambda pair: render_word(pair[0])):
        report.add(render_word(w), ok, "" if ok else "normal forms differ")
    return report


def run_relation_suite(bound: int) -> Report:
    from .words import defining_relations
    report = Report("relations")
    for name, poly in defining_relations(bound):
        nf = rewrite.normal_form(poly)
        report.add(name, nf.is_zero(), "" if nf.is_zero() else "nonzero residue")
    return report


def _kernel(name: str):
    """The kernel module `name`, imported on first use, so that a command
    loads only the modules it runs."""
    return importlib.import_module(f"{__package__}.{name}")


# Each check suite: its runner and the parameters it reports, with their
# defaults.  The runners look their module and function up when called, so
# a wrapper set on a module afterwards still sees each call.
CHECKS = {
    "relations": (lambda bound: run_relation_suite(bound), {"bound": 3}),
    "ambiguities": (lambda bound: run_ambiguity_suite(bound), {"bound": 3}),
    "gf": (lambda order: _kernel("series").check_gf_relations(order),
           {"order": 4}),
    "central": (lambda n, bound: Report("central", [
                    r for k in range(n + 1)
                    for r in _kernel("central").check_central(
                        k, bound).results]),
                {"n": 4, "bound": 6}),
    "dolan-grady": (lambda: _kernel("central").check_dolan_grady(), {}),
    "matrix": (lambda order:
               _kernel("central").check_matrix_factorization(order),
               {"order": 4}),
    "appendix-b": (lambda: _kernel("central").check_appendix_b(), {}),
    "prop41": (lambda order:
               _kernel("series").check_prop41_decompositions(order),
               {"order": 4}),
}

# The generating functions `series` lists, by name, and the named series
# A..S it lists: `series.APPENDIX_A_NAMES` less G, which names the
# generating function (the tests hold the two lists equal).
GF_FAMILIES = {"W-": Family.Wminus, "W+": Family.Wplus, "G": Family.G,
               "Gt": Family.Gtilde}
SERIES_NAMES = tuple("ABCDEFHIJKLMNPQRS")

# (command, parameter) -> (least, largest, reason): a value outside the
# range is refused before any work starts.  Each largest value is the
# largest measured to stay under about a minute and 1 GB peak RSS in one
# cold CLI run on 2 vCPUs, as `python3 tools/limits.py <command>` prints
# it; every size parameter has a row.
LIMITS = {
    # the relations' normal forms grow with the square of the bound
    ("check relations", "bound"): (
        0, 64, "its relation list grows with the square of the bound"),
    # the overlap count grows with the cube of the bound
    ("check ambiguities", "bound"): (
        0, 12, "it checks all C(4(bound + 1), 3) overlaps"),
    # the letters checked grow with the bound, and bound 0 checks none
    ("check central", "bound"): (
        1, 1000, "it checks the letters with index below the bound"),
    # the words of Z_n grow with n; CENTRAL_COST_CAP below caps the pair
    ("check central", "n"): (
        0, 22, "it checks each of Z_0 to Z_n against every letter"),
    # the series' coefficients and their words grow with the order
    ("check gf", "order"): (
        0, 48, "its cost grows about as the cube of the order"),
    # the named series' coefficients grow with the order
    ("check prop41", "order"): (
        0, 192, "its cost grows faster than the square of the order"),
    # the matrix entries' coefficients grow with the order
    ("check matrix", "order"): (
        0, 36, "its cost grows about as the fourth power of the order"),
    # the words of Z_n grow with n
    ("zn", "n"): (0, 64, "its cost grows about as the fourth power of n"),
    # the words of Z_1 to Z_n and of each recovered generator grow with n
    ("recover", "n"): (
        1, 56, "it builds Z_1 to Z_n and every generator up to level n"),
    # the irreducible words grow exponentially with the degree
    ("dims", "max_degree"): (
        0, 34, "the number of words grows exponentially with the degree"),
    # the coefficients grow with the order; capped at each group's costliest
    **{(f"series {name}", "order"): (0, largest, reason)
       for names, largest, reason in (
           (("Z",), 56, "its cost grows faster than the fourth power of "
                        "the order"),
           (SERIES_NAMES, 192,
            "its cost grows about as the cube of the order"),
           (tuple(GF_FAMILIES), 400_000,
            "it lists one coefficient per power of the variable"))
       for name in names},
}


# `check central`'s cap on bound * (n + 2)^4; measured runs are in CHANGES.md
CENTRAL_COST_CAP = 2_000_000


def central_cost(n: int, bound: int) -> int:
    """The size measure of `check central --n n --bound bound`."""
    return bound * (n + 2) ** 4


def _check_limits(command: str, parameters: dict) -> dict:
    """Raise ValueError for a parameter outside its LIMITS row, or for a
    `check central` pair above CENTRAL_COST_CAP (a parameter not given
    counts at its default); else return the parameters."""
    for name, value in parameters.items():
        least, largest, reason = LIMITS[command, name]
        option = "--" + name.replace("_", "-")
        if value < least:
            raise ValueError(f"{command} needs {option} >= {least}: {reason}")
        if value > largest:
            raise ValueError(f"{command} needs {option} <= {largest}: {reason}")
    if command == "check central":
        pair = {**CHECKS["central"][1], **parameters}
        if central_cost(pair["n"], pair["bound"]) > CENTRAL_COST_CAP:
            raise ValueError(
                f"check central needs --bound * (--n + 2)^4 <= "
                f"{CENTRAL_COST_CAP:,}: it normalizes the commutator of "
                f"each of Z_0 to Z_n with every letter below the bound")
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
    central = _kernel("central")
    params = _check_limits("zn", {"n": args.n})
    direct, extraction = (central.z_n(args.n, route)
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
    dims = _kernel("dims")
    params = _check_limits("dims", {"max_degree": args.max_degree})
    report = dims.check_word_counts(args.max_degree)
    counts = [int(r.detail) for r in report.results]
    return _emit(args, "dims", params, report,
                 text=["degree:    " + " ".join(
                           map(str, range(args.max_degree + 1))),
                       "dimension: " + " ".join(map(str, counts))],
                 dimensions=counts, series=dims.hilbert_Aq(args.max_degree))


def cmd_series(args) -> int:
    spec = args.name
    if (f"series {spec}", "order") not in LIMITS:   # every name has a row
        raise ValueError(f"unknown series {spec!r}")
    if spec not in GF_FAMILIES and args.var != "t":
        raise ValueError(f"series {spec} takes only --var t; the other "
                         f"variables are for W-, W+, G and Gt")
    _check_limits(f"series {spec}", {"order": args.order})
    if spec in GF_FAMILIES:
        ts = _kernel("series").gf(GF_FAMILIES[spec], args.var, args.order)
    elif spec == "Z":
        ts = _kernel("central").z_series(args.order)
    else:
        ts = _kernel("series").appendixA_series(spec, order=args.order)
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
    central = _kernel("central")
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
            ("n", f"the central suite checks Z_0 to Z_n, and needs "
                  f"bound * (n + 2)^4 <= {CENTRAL_COST_CAP:,}")):
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
    p.add_argument("--order", type=_non_negative_int, default=4,
                   help=f"accepts {_accepted('series Z', 'order')} for Z, "
                        f"{_accepted('series A', 'order')} for A..S, and "
                        f"{_accepted('series W-', 'order')} for W-, W+, G "
                        f"and Gt")
    p.add_argument("--var", default="t",
                   help="the variable of W-, W+, G and Gt (default t); Z and "
                        "A..S take only t")
    p.set_defaults(func=cmd_series)

    p = sub.add_parser("recover", help="rebuild generators from the central "
                                       "elements and the degree-one pair")
    p.add_argument("--n", type=_non_negative_int, default=3,
                   help=f"accepts {_accepted('recover', 'n')}")
    p.set_defaults(func=cmd_recover)
    return parser


# The cyclic collector's thresholds while a command runs.  The kernel's
# caches are long-lived and hold no reference cycles, and at the default
# thresholds (700, 10, 10) the collector rescans them again and again,
# about a fifth of a cold `check relations --bound 40`; the kernel makes no
# cyclic garbage that needs collecting sooner.
GC_THRESHOLDS = (50_000, 20, 20)


def _internal_error(exc: Exception) -> bool:
    """True for an exception that is a failed invariant of the kernel, not
    a fault of the input.  RuntimeError includes RewriteInternalError,
    FloorUnderflowError and WindowError; DivisibilityError is a ValueError
    no user input reaches, and only a command that loaded `series` can
    raise one."""
    if isinstance(exc, (KeyError, IndexError, RuntimeError)):
        return True
    series = sys.modules.get(f"{__package__}.series")
    return series is not None and isinstance(exc, series.DivisibilityError)


def main(argv=None) -> int:
    thresholds = gc.get_threshold()
    gc.set_threshold(*GC_THRESHOLDS)
    try:
        parser = build_parser()
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
    except (KeyError, IndexError, RuntimeError, ValueError) as exc:
        if not _internal_error(exc):
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    finally:
        gc.set_threshold(*thresholds)


if __name__ == "__main__":
    sys.exit(main())
