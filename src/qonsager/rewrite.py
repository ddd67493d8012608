"""Reduction-rule engine: PBW normal forms and confluence certification.

Every reducible two-letter word has exactly one rule rewriting it into a
combination of smaller words; rule bodies are generated from the closed
index formulas, with subscript-zero G symbols resolving to scalars.
Rules vi and vii are not written out: they are the images of rules iv and
v under the antiautomorphism dagger, which reverses words and swaps G with
Gt, and are generated from them.
Rewriting strictly decreases the (length, weight) lexicographic measure,
which is asserted at every step, so termination is a runtime-checked
fact rather than a step cap.
Every left side has two letters, so the ambiguities are the overlaps: the
C(4(b + 1), 3) strictly decreasing triples of letters with indices <= b.

`_word_nf` visits each word once: its expansion (descent, rule, candidate
words and their measure check) waits on its stack frame until the
candidates are filled.  `_combine` (`qfield.lincomb`) then collects the
terms by word in one pass; a word's coefficient is a memo lookup by its
summands, or on a miss is grouped by shape and canonicalized once.
The rule and normal-form caches are plain process-local dicts keyed by
immutable values.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import List, Tuple

from . import qfield
from .qfield import QONE, QRat, lincomb as _combine
from .words import (Family, Generator, NCPoly, Word, dagger_letter,
                    first_descent, g_, gt_, symbol_from_subscript, wm,
                    word_weight, wp, w_sub)


class RewriteInternalError(RuntimeError):
    """A per-step invariant of the engine failed; indicates a bug."""


@dataclass(frozen=True)
class RuleApplication:
    rule_id: str
    left_pair: Tuple[Generator, Generator]
    result: NCPoly


_SAME_FAMILY_RULE_ID = {
    Family.G: "i_GG",
    Family.Wminus: "i_WmWm",
    Family.Wplus: "i_WpWp",
    Family.Gtilde: "i_GtGt",
}


def rule_id_for(a: Generator, b: Generator) -> str:
    if a.family == b.family:
        return _SAME_FAMILY_RULE_ID[a.family]
    key = (a.family, b.family)
    return {
        (Family.Wplus, Family.Wminus): "ii",
        (Family.Gtilde, Family.G): "iii",
        (Family.Wplus, Family.G): "iv",
        (Family.Wminus, Family.G): "v",
        (Family.Gtilde, Family.Wplus): "vi",
        (Family.Gtilde, Family.Wminus): "vii",
    }[key]


def _term(coeff: QRat, *symbols) -> Tuple[QRat, Word]:
    """Flatten a coefficient and a list of letters-or-scalars into one term."""
    letters = []
    for s in symbols:
        if isinstance(s, Generator):
            letters.append(s)
        else:
            coeff = coeff * s
    return coeff, tuple(letters)


_RULE_CACHE: dict = {}


def _rule_terms(a: Generator, b: Generator) -> List[Tuple[QRat, Word]]:
    fa, fb = a.family, b.family
    if fa == Family.Gtilde and fb in (Family.Wplus, Family.Wminus):
        # rules vi and vii: the dagger images of rules iv and v
        return [(c, tuple(dagger_letter(g) for g in reversed(w)))
                for c, w in _rule_terms(dagger_letter(b), dagger_letter(a))]
    q = qfield.q_pow
    Q2 = q(2) - q(-2)            # q^2 - q^-2
    qm = qfield.Q - q(-1)        # q - q^-1
    i, j = a.k, b.k
    terms: List[Tuple[QRat, Word]] = []
    if fa == fb:
        # same-family letters commute
        return [(QONE, (b, a))]
    if (fa, fb) == (Family.Wplus, Family.Wminus):
        e = (Q2 * qfield.q_int(2) ** 2).inverse()
        terms.append((QONE, (b, a)))
        for l in range(min(i, j) + 1):
            terms.append(_term(e, symbol_from_subscript("G", l),
                               symbol_from_subscript("Gt", i + j + 1 - l)))
            terms.append(_term(-e, symbol_from_subscript("G", i + j + 1 - l),
                               symbol_from_subscript("Gt", l)))
        return terms
    if (fa, fb) == (Family.Gtilde, Family.G):
        c = Q2 ** 3
        terms.append((QONE, (g_(j + 1), gt_(i + 1))))
        terms.append((-c, (wm(i), wm(j))))
        terms.append((c, (wp(i + 1), wp(j + 1))))
        for l in range(min(i, j) + 1):
            terms.append(_term(c, wm(l), w_sub(i + j + 2 - l)))
            terms.append(_term(-c, w_sub(l - 1 - i - j), wp(l + 1)))
        for l in range(1, min(i, j) + 1):
            terms.append(_term(-c, w_sub(1 - l), w_sub(i + j + 1 - l)))
            terms.append(_term(c, w_sub(l - i - j), w_sub(l)))
        return terms
    if (fa, fb) == (Family.Wplus, Family.G):
        c = qfield.Q * qm
        terms.append((QONE, (g_(j + 1), wp(i + 1))))
        for l in range(min(i, j) + 1):
            terms.append(_term(c, symbol_from_subscript("G", l), w_sub(l - i - j)))
            terms.append(_term(c, symbol_from_subscript("G", i + j + 1 - l),
                               wp(l + 1)))
            terms.append(_term(-c, symbol_from_subscript("G", l),
                               w_sub(i + j + 2 - l)))
        for l in range(1, min(i, j) + 1):
            terms.append(_term(-c, symbol_from_subscript("G", i + j + 1 - l),
                               w_sub(1 - l)))
        return terms
    if (fa, fb) == (Family.Wminus, Family.G):
        c = q(-1) * qm
        terms.append((QONE, (g_(j + 1), wm(i))))
        for l in range(min(i, j) + 1):
            terms.append(_term(-c, symbol_from_subscript("G", l),
                               w_sub(i + j + 1 - l)))
            terms.append(_term(c, symbol_from_subscript("G", l),
                               w_sub(l - 1 - i - j)))
            terms.append(_term(-c, symbol_from_subscript("G", i + j + 1 - l),
                               wm(l)))
        for l in range(1, min(i, j) + 1):
            terms.append(_term(c, symbol_from_subscript("G", i + j + 1 - l),
                               w_sub(l)))
        return terms
    raise RewriteInternalError(f"no rule for pair {a} {b}")


def _rule_poly(a: Generator, b: Generator) -> NCPoly:
    key = (a, b)
    cached = _RULE_CACHE.get(key)
    if cached is None:
        cached = NCPoly([(w, c) for c, w in _rule_terms(a, b)])
        pair_measure = (2, word_weight((a, b)))
        for w in cached.words():
            if (len(w), word_weight(w)) >= pair_measure:
                raise RewriteInternalError(
                    f"descendant {w} does not decrease the measure of ({a}, {b})")
        _RULE_CACHE[key] = cached
    return cached


def apply_rule(a: Generator, b: Generator) -> NCPoly:
    """Rewrite the reducible pair a*b as a combination of smaller words."""
    if not a > b:
        raise ValueError(f"pair ({a}, {b}) is not reducible")
    return _rule_poly(a, b)


def rule_application(a: Generator, b: Generator) -> RuleApplication:
    return RuleApplication(rule_id_for(a, b), (a, b), apply_rule(a, b))


def measure_decreases(host: Word, position: int, app: RuleApplication) -> bool:
    """True iff every word obtained by applying app at position is strictly
    below host in the (length, weight) lexicographic measure."""
    if host[position:position + 2] != app.left_pair:
        raise ValueError("rule does not apply at the given position")
    prefix, suffix = host[:position], host[position + 2:]
    m = (len(host), word_weight(host))
    for w in app.result.words():
        candidate = prefix + w + suffix
        if (len(candidate), word_weight(candidate)) >= m:
            return False
    return True


# -- normal forms ------------------------------------------------------------

_NF_CACHE: dict = {}


def _word_nf(w: Word) -> dict:
    """Normal form of a single word as a terms dict (memoized)."""
    cached = _NF_CACHE.get(w)
    if cached is not None:
        return cached
    # frames (word, expansion); the expansion is None until the first visit
    stack = [(w, None)]
    while stack:
        top, expansion = stack[-1]
        if expansion is None:
            if top in _NF_CACHE:
                stack.pop()
                continue
            pos = first_descent(top)
            if pos is None:
                _NF_CACHE[top] = {top: QONE}
                stack.pop()
                continue
            rule = _rule_poly(top[pos], top[pos + 1])
            prefix, suffix = top[:pos], top[pos + 2:]
            measure = (len(top), word_weight(top))
            expansion = []
            stack[-1] = (top, expansion)
            depth = len(stack)
            for u, c in rule.terms.items():
                candidate = prefix + u + suffix
                if (len(candidate), word_weight(candidate)) >= measure:
                    raise RewriteInternalError(
                        f"rewrite step failed to decrease the measure at {top}")
                expansion.append((candidate, c))
                if candidate not in _NF_CACHE:
                    stack.append((candidate, None))
            if len(stack) > depth:
                continue
        # every candidate is filled: the frames above this one are popped
        _NF_CACHE[top] = _combine([(c, _NF_CACHE[candidate])
                                   for candidate, c in expansion])
        stack.pop()
    return _NF_CACHE[w]


def normal_form(p: NCPoly) -> NCPoly:
    """The unique PBW expansion of p: every word non-decreasing in the order."""
    out = NCPoly.__new__(NCPoly)
    out.terms = _combine([(c, _word_nf(w)) for w, c in p.terms.items()])
    return out


def reduce_with_strategy(p: NCPoly, rng) -> NCPoly:
    """Reduce p rewriting a uniformly random word at a random descent each
    step.

    Test oracle for strategy independence: the confluent system reaches
    the same normal form whatever order the sites are eliminated in.  It
    keeps the binary `prev + c * cu` fold, so it does not share
    `qfield.lincomb` with `normal_form`.
    """
    terms = dict(p.terms)
    worklist = [w for w in terms if first_descent(w) is not None]
    while worklist:
        k = rng.randrange(len(worklist))
        worklist[k], worklist[-1] = worklist[-1], worklist[k]
        w = worklist.pop()
        c = terms.pop(w, None)
        if c is None:
            continue  # canceled since it was queued
        positions = [i for i in range(len(w) - 1) if w[i] > w[i + 1]]
        if not positions:
            terms[w] = c
            continue
        i = rng.choice(positions)
        rule = _rule_poly(w[i], w[i + 1])
        for u, cu in rule.terms.items():
            candidate = w[:i] + u + w[i + 2:]
            prev = terms.get(candidate)
            s = c * cu if prev is None else prev + c * cu
            if s.is_zero():
                terms.pop(candidate, None)
            else:
                terms[candidate] = s
                if prev is None and first_descent(candidate) is not None:
                    worklist.append(candidate)
    out = NCPoly.__new__(NCPoly)
    out.terms = terms
    return out


# -- overlap ambiguities -------------------------------------------------------


@dataclass(frozen=True)
class OverlapReport:
    word: Word
    agrees: bool
    nf_left: NCPoly
    nf_right: NCPoly


def check_overlap(w: Word) -> OverlapReport:
    """Resolve a length-3 overlap both ways and compare the normal forms."""
    if len(w) != 3 or not (w[0] > w[1] and w[1] > w[2]):
        raise ValueError(f"{w} is not an overlap ambiguity")
    left = NCPoly({u + (w[2],): c
                   for u, c in apply_rule(w[0], w[1]).terms.items()})
    right = NCPoly({(w[0],) + u: c
                    for u, c in apply_rule(w[1], w[2]).terms.items()})
    nf_left = normal_form(left)
    nf_right = normal_form(right)
    return OverlapReport(w, nf_left == nf_right, nf_left, nf_right)


def enumerate_overlaps(bound: int) -> List[Word]:
    """All overlap ambiguities with letter indices <= bound.

    Every rule has a two-letter left side, so there are no inclusion
    ambiguities, and the overlaps are exactly the strictly decreasing
    letter triples: C(4(bound + 1), 3) of them, the complete list the
    diamond lemma requires at the given index bound.
    """
    if bound < 0:
        raise ValueError("bound must be >= 0")
    letters = [Generator(f, k) for f in Family for k in range(bound + 1)]
    return list(combinations(sorted(letters, reverse=True), 3))


def clear_caches():
    _RULE_CACHE.clear()
    _NF_CACHE.clear()
    qfield.clear_memos()
