"""Reduction-rule engine: PBW normal forms and confluence certification.

Every reducible two-letter word has exactly one rule rewriting it into a
combination of smaller words; rule bodies are generated from the closed
index formulas, with subscript-zero G symbols resolving to scalars.  Each
letter of a body is built from its int form, family * 2^32 + k, with
`int.__new__`, and each coefficient is a module value: the prefactor of
the rule, its negation, or either times G0 for an l = 0 term.  `_rule`
fills the body's dict term by term and sums only where a word repeats.
Rules vi and vii are not written out: they are the images of rules iv and
v under the antiautomorphism dagger, which reverses words and swaps G with
Gt, and are generated from them.
Rewriting strictly decreases the (length, weight) lexicographic measure
of x*a*b*y for every prefix x and suffix y, as the diamond lemma
requires, so termination is a certified fact rather than a step cap.
Each rule is certified once, when it is built, and a rule that fails
raises `RewriteInternalError`.  A step at position pos of a word of
length n replaces a*b by a body word u.  A shorter u is below the word
by length; a two-letter u changes the weight by exactly m*D0 + (m - 1)*D1
with m = n - pos >= 2 and the letter-weight deltas D0 = w(u0) - w(a),
D1 = w(u1) - w(b) (`_step_deltas`).  That depends on neither x nor y,
and `_descends` decides it for every m >= 2 from two values of m.
Every left side has two letters, so the ambiguities are the overlaps: the
C(4(b + 1), 3) strictly decreasing triples of letters with indices <= b.

`_word_nf` visits each word once, on an explicit stack.  Its first
visit reads each candidate word's normal form from `_NF_CACHE` once, into
a (coefficient, normal form) list in body order on its frame; a
candidate not yet filled is read once more, after its own frames finish.
`_combine` (`qfield.lincomb`) then collects the terms by word
in one merge pass that looks each product up as it goes; a word's
coefficient is a memo lookup by its summands, or on a miss is grouped by
shape and canonicalized once.  A same-family swap, one body word with
coefficient 1, stores its candidate's dict itself with no combine, so a
cached normal form may serve several words and is read-only.
The rule and normal-form caches are plain process-local dicts keyed by
immutable values.  No rule body word has a degree above its pair's, so
`resolve_overlaps` takes a suite's overlaps by decreasing degree and, at
each step down, deletes from `_NF_CACHE` the words no later overlap can
reach; every word is still filled once.
"""

from __future__ import annotations

from itertools import combinations
from typing import List, NamedTuple, Tuple

from . import qfield, words
from .qfield import QONE, QRat, lincomb as _combine
from .words import (_K_BITS, _K_MASK, Family, Generator, NCPoly, Word,
                    _letter, dagger_letter, first_descent, letter_weight,
                    word_weight)


class RewriteInternalError(RuntimeError):
    """A per-step invariant of the engine failed; indicates a bug."""


class RuleApplication(NamedTuple):
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


_RULE_CACHE: dict = {}


def _signed(c: QRat) -> tuple:
    """(c, -c, c*G0, -c*G0): a rule's prefactor, its negation, and both
    times G0, the value of the subscript-zero G symbols of its l = 0 terms."""
    return c, -c, c * qfield.G0, -c * qfield.G0


# The prefactors of rules ii, iii, iv and v, and their signed forms, built
# once.
E_II = (qfield.Q2M * qfield.q_int(2) ** 2).inverse()   # 1/((q^2 - q^-2)[2]q^2)
C_III = qfield.Q2M ** 3                                 # (q^2 - q^-2)^3
C_IV = qfield.Q * qfield.QM                             # q(q - q^-1)
C_V = qfield.q_pow(-1) * qfield.QM                      # q^-1(q - q^-1)
_E_II, _C_III, _C_IV, _C_V = map(_signed, (E_II, C_III, C_IV, C_V))

# The letter G_n is n - 1, Gt_n is _GT + n - 1, W_{-k} is _WM + k and W_n
# (n >= 1) is _WP + n - 1 (the int form of `words.Generator`).
_WM, _WP, _GT = (Family.Wminus << _K_BITS, Family.Wplus << _K_BITS,
                 Family.Gtilde << _K_BITS)


def _rule_terms(a: Generator, b: Generator) -> List[Tuple[QRat, Word]]:
    """The terms (coefficient, word) of the rule for the reducible pair
    a*b, in the order of the closed index formulas.  A subscript-zero G
    symbol is the scalar G0, already in the coefficient; the one range check
    is on the largest index of a body letter."""
    fa, fb = a >> _K_BITS, b >> _K_BITS
    if fa == Family.Gtilde and fb != Family.G and fb != Family.Gtilde:
        # rules vi and vii: the dagger images of rules iv and v
        return [(c, tuple(map(dagger_letter, w[::-1])))
                for c, w in _rule_terms(dagger_letter(b), dagger_letter(a))]
    if fa == fb:
        # same-family letters commute
        return [(QONE, (b, a))]
    i, j = a & _K_MASK, b & _K_MASK
    s = i + j
    top = s + (fb == Family.G)   # the largest index of a body letter
    if top > _K_MASK:
        raise ValueError(f"letter index {top} is outside [0, 2^32)")
    L = _letter
    if fa == Family.Wplus and fb == Family.Wminus:
        c, nc, c0, nc0 = _E_II
        terms = [(QONE, (b, a)), (c0, (L(_GT + s),)), (nc0, (L(s),))]
        for l in range(1, min(i, j) + 1):
            terms += [(c, (L(l - 1), L(_GT + s - l))),
                      (nc, (L(s - l), L(_GT + l - 1)))]
        return terms
    if fa == Family.Gtilde and fb == Family.G:
        c, nc, _, _ = _C_III
        terms = [(QONE, (b, a)), (nc, (L(_WM + i), L(_WM + j))),
                 (c, (L(_WP + i), L(_WP + j)))]
        for l in range(min(i, j) + 1):
            terms += [(c, (L(_WM + l), L(_WP + s + 1 - l))),
                      (nc, (L(_WM + s + 1 - l), L(_WP + l)))]
        for l in range(1, min(i, j) + 1):
            terms += [(nc, (L(_WM + l - 1), L(_WP + s - l))),
                      (c, (L(_WM + s - l), L(_WP + l - 1)))]
        return terms
    if fa == Family.Wplus and fb == Family.G:
        c, nc, c0, nc0 = _C_IV
        terms = [(QONE, (b, a)), (c0, (L(_WM + s),)),
                 (c, (L(s), L(_WP))), (nc0, (L(_WP + s + 1),))]
        for l in range(1, min(i, j) + 1):
            terms += [(c, (L(l - 1), L(_WM + s - l))),
                      (c, (L(s - l), L(_WP + l))),
                      (nc, (L(l - 1), L(_WP + s + 1 - l)))]
        for l in range(1, min(i, j) + 1):
            terms.append((nc, (L(s - l), L(_WM + l - 1))))
        return terms
    if fa == Family.Wminus and fb == Family.G:
        c, nc, c0, nc0 = _C_V
        terms = [(QONE, (b, a)), (nc0, (L(_WP + s),)),
                 (c0, (L(_WM + s + 1),)), (nc, (L(s), L(_WM)))]
        for l in range(1, min(i, j) + 1):
            terms += [(nc, (L(l - 1), L(_WP + s - l))),
                      (c, (L(l - 1), L(_WM + s + 1 - l))),
                      (nc, (L(s - l), L(_WM + l)))]
        for l in range(1, min(i, j) + 1):
            terms.append((c, (L(s - l), L(_WP + l - 1))))
        return terms
    raise RewriteInternalError(f"no rule for pair {a} {b}")


def _rule(a: Generator, b: Generator) -> NCPoly:
    """The body of the rule for the pair a*b as an NCPoly, built and
    certified once.  The body is filled from `_rule_terms` word by word,
    and a word's coefficients are summed only where the word repeats.
    Every body word must lower the measure wherever the pair stands in a
    word: it is shorter, or it has two letters and its step `_descends`."""
    key = (a, b)
    cached = _RULE_CACHE.get(key)
    if cached is None:
        body = {}
        for c, u in _rule_terms(a, b):
            prev = body.get(u)
            body[u] = c if prev is None else prev + c
        body = {u: c for u, c in body.items() if c.p}
        for u, d in zip(body, _step_deltas(a, b, body)):
            if len(u) > 2 or (d is not None and not _descends(d)):
                raise RewriteInternalError(
                    f"descendant {u} does not decrease the measure of ({a}, {b})")
        cached = _RULE_CACHE[key] = NCPoly.from_terms(body)
    return cached


def _step_deltas(a: Generator, b: Generator, body) -> list:
    """How the weight changes when the pair a*b at position pos of a word
    is replaced by each word u of body: None for a shorter u, and otherwise
    the letter-weight deltas (D0, D1) = (w(u0) - w(a), w(u1) - w(b)) as one
    6-tuple.  The weights of a and b are read once for the whole body.

    A letter at position i of a word of length n weighs n - i times its
    own weight, so with m = n - pos the word's weight changes by exactly
    m*D0 + (m - 1)*D1 (`_decreases`).
    """
    (aa, ba, ca), (ab, bb, cb) = letter_weight(a), letter_weight(b)
    deltas = []
    for u in body:
        if len(u) < 2:
            deltas.append(None)
            continue
        (a0, b0, c0), (a1, b1, c1) = letter_weight(u[0]), letter_weight(u[1])
        deltas.append((a0 - aa, b0 - ba, c0 - ca, a1 - ab, b1 - bb, c1 - cb))
    return deltas


def _decreases(m: int, d) -> bool:
    """Whether a step with the deltas d, m letters from the word's end,
    lowers the word's weight: m*D0 + (m - 1)*D1 < (0, 0, 0)."""
    a0, b0, c0, a1, b1, c1 = d
    n = m - 1
    return (m * a0 + n * a1, m * b0 + n * b1, m * c0 + n * c1) < (0, 0, 0)


def _descends(d) -> bool:
    """Whether a step with the deltas d lowers the word's weight at every
    distance m >= 2 from the word's end, decided at m = 2 and one M.

    Each coordinate of f(m) = m*D0 + (m - 1)*D1 is m*(D0 + D1) - D1: linear
    in m with an integer slope, so it is identically 0 or has at most one
    root, of absolute value at most max|d|.  The first coordinate that is
    not identically 0 decides the lexicographic sign of f(m) wherever it is
    nonzero, and it is nonzero at M = 3 + 3*max|d|, past its root.  If
    f(2) < 0 and f(M) < 0, that coordinate is <= 0 at 2 and < 0 at M, so by
    linearity it is < 0 at every m > 2, and so is f(m); the converse is
    immediate.  An all-zero d fails at m = 2.
    """
    return _decreases(2, d) and _decreases(3 + 3 * max(map(abs, d)), d)


def apply_rule(a: Generator, b: Generator) -> NCPoly:
    """Rewrite the reducible pair a*b as a combination of smaller words."""
    if not a > b:
        raise ValueError(f"pair ({a}, {b}) is not reducible")
    return _rule(a, b)


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

# word -> its normal form as a terms dict.  A same-family swap stores its
# candidate's dict itself, so one dict may serve several words: the cached
# normal forms are read-only, and every caller combines them into new dicts.
_NF_CACHE: dict = {}


def _word_nf(w: Word) -> dict:
    """Normal form of a single word as a terms dict (memoized, read-only)."""
    cached = _NF_CACHE.get(w)
    if cached is not None:
        return cached
    # frames (word, terms, missing): terms is None until the first visit,
    # then the (c, normal form) pairs of the candidates in body order;
    # missing lists the (index, candidate) of each pair whose normal form
    # was not yet filled, None until its frames finish
    stack = [(w, None, None)]
    while stack:
        top, terms, missing = stack[-1]
        if terms is None:
            if top in _NF_CACHE:
                stack.pop()
                continue
            pos = first_descent(top)
            if pos is None:
                _NF_CACHE[top] = {top: QONE}
                stack.pop()
                continue
            prefix, suffix = top[:pos], top[pos + 2:]
            terms, missing = [], []
            for u, c in _rule(top[pos], top[pos + 1]).terms.items():
                candidate = prefix + u + suffix
                nf = _NF_CACHE.get(candidate)
                if nf is None:
                    missing.append((len(terms), candidate))
                terms.append((c, nf))
            if missing:
                stack[-1] = (top, terms, missing)
                stack.extend([(candidate, None, None)
                              for _, candidate in missing])
                continue
        else:
            # every missing candidate is filled: its frames are popped
            for i, candidate in missing:
                terms[i] = (terms[i][0], _NF_CACHE[candidate])
        if len(terms) == 1 and terms[0][0] is QONE:
            # a same-family swap shares its candidate's normal form
            _NF_CACHE[top] = terms[0][1]
        else:
            _NF_CACHE[top] = _combine(terms)
        stack.pop()
    return _NF_CACHE[w]


def resolve_overlaps(overlaps: List[Word]) -> List[bool]:
    """Whether each overlap resolves (`check_overlap(w).agrees`), in the
    order given.

    The overlaps are resolved by decreasing total degree (a stable sort).
    No rule body word has a degree above its pair's, so resolving an
    overlap of degree D reaches only words of degree <= D.  At each step
    down to a lower degree d, no later overlap can reach a word above d,
    and those words are deleted from `_NF_CACHE` in place, so every word is
    filled once; a word reached after its drop would be filled again, and
    no verdict depends on the drop.  Each cached word's degree is computed
    once, at the first step after its fill, from a per-letter lookup.
    """
    letter_degree = {}

    def degree(w: Word) -> int:
        d = 0
        for a in w:
            x = letter_degree.get(a)
            if x is None:
                x = letter_degree[a] = a.degree()
            d += x
        return d

    degrees = [degree(w) for w in overlaps]
    verdicts = [False] * len(overlaps)
    by_degree = {}   # degree -> the words of that degree in _NF_CACHE
    mark = 0         # the entries of _NF_CACHE before mark are in by_degree
    current = None
    for i in sorted(range(len(overlaps)), key=degrees.__getitem__,
                    reverse=True):
        d = degrees[i]
        if d != current:
            for w in list(_NF_CACHE)[mark:]:
                by_degree.setdefault(degree(w), []).append(w)
            for e in [e for e in by_degree if e > d]:
                for w in by_degree.pop(e):
                    _NF_CACHE.pop(w, None)
            mark, current = len(_NF_CACHE), d
        verdicts[i] = check_overlap(overlaps[i]).agrees
    return verdicts


def normal_form(p: NCPoly) -> NCPoly:
    """The unique PBW expansion of p: every word non-decreasing in the order."""
    return NCPoly.from_terms(
        _combine([(c, _word_nf(w)) for w, c in p.terms.items()]))


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
        i = rng.choice([i for i in range(len(w) - 1) if w[i] > w[i + 1]])
        for u, cu in _rule(w[i], w[i + 1]).terms.items():
            candidate = w[:i] + u + w[i + 2:]
            prev = terms.get(candidate)
            s = c * cu if prev is None else prev + c * cu
            if s.is_zero():
                terms.pop(candidate, None)
            else:
                terms[candidate] = s
                if prev is None and first_descent(candidate) is not None:
                    worklist.append(candidate)
    return NCPoly.from_terms(terms)


# -- overlap ambiguities -------------------------------------------------------


class OverlapReport(NamedTuple):
    word: Word
    agrees: bool
    nf_left: NCPoly
    nf_right: NCPoly


def check_overlap(w: Word) -> OverlapReport:
    """Resolve a length-3 overlap both ways and compare the normal forms."""
    if len(w) != 3 or not (w[0] > w[1] and w[1] > w[2]):
        raise ValueError(f"{w} is not an overlap ambiguity")
    left = NCPoly.from_terms({u + (w[2],): c
                              for u, c in apply_rule(w[0], w[1]).terms.items()})
    right = NCPoly.from_terms({(w[0],) + u: c
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
    words._WORD_TEXT.clear()
    qfield.clear_memos()
