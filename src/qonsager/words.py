"""Free-algebra data model: generators, words, linear combinations.

The alphabet has four families of letters.  The family rank fixes the
PBW order: every G letter comes before every W-minus letter, then the
W-plus letters, then the G-tilde letters; inside a family, smaller
index comes first.  Degree-zero G symbols are scalars, never letters.

A letter is an int, family * 2^32 + k with 0 <= k < 2^32, so the int
order is the PBW order and a word, a tuple of letters, hashes and
compares in C; `family` and `k` are read back by shift and mask.  A
letter is never a scalar: `qfield.of` embeds exact ints only.

NCPoly sums, differences, products, scalar multiples, `NCPoly.sum` and
the constructor from (word, coefficient) pairs combine their terms
through `qfield.lincomb`, which sums each word's coefficient once and
drops it if it cancels.
"""

from __future__ import annotations

from enum import IntEnum
from functools import partial
from typing import Iterable, NamedTuple, Tuple, Union

from . import qfield
from .qfield import QONE, QRat, lincomb


class Family(IntEnum):
    G = 0
    Wminus = 1
    Wplus = 2
    Gtilde = 3


_K_BITS = 32
_K_MASK = (1 << _K_BITS) - 1
_FAMILIES = tuple(Family)   # by rank: a tuple index, not an enum lookup


class Generator(int):
    """The letter with the given family and index k: G_{k+1}, W_{-k},
    W_{k+1} or Gtilde_{k+1}, stored as the int family * 2^32 + k."""

    __slots__ = ()

    def __new__(cls, family: Family, k: int):
        if not 0 <= k <= _K_MASK:
            raise ValueError(f"letter index {k} is outside [0, 2^32)")
        return int.__new__(cls, family << _K_BITS | k)

    @property
    def family(self) -> Family:
        return _FAMILIES[self >> _K_BITS]

    @property
    def k(self) -> int:
        return self & _K_MASK

    def __getnewargs__(self):
        return self.family, self.k

    def __repr__(self):
        return f"Generator(family={self.family!r}, k={self.k})"

    def subscript(self) -> int:
        if self.family == Family.Wminus:
            return -self.k
        return self.k + 1

    def degree(self) -> int:
        if self.family in (Family.Wminus, Family.Wplus):
            return 2 * self.k + 1
        return 2 * self.k + 2

    def weight(self) -> "Weight":
        k = self.k
        if self.family == Family.G:
            return Weight(0, 0, k + 1)
        if self.family == Family.Wminus:
            return Weight(1, 0, k)
        if self.family == Family.Wplus:
            return Weight(1, 1, k)
        return Weight(2, 0, k + 1)

    def text(self) -> str:
        if self.family == Family.G:
            return f"G[{self.k + 1}]"
        if self.family == Family.Gtilde:
            return f"Gt[{self.k + 1}]"
        return f"W[{self.subscript()}]"


# The Generator with the given int form, family * 2^32 + k, for an int
# known to be one, with no range check: an int operation such as `^`
# returns a plain int, and this retags it.
_letter = partial(int.__new__, Generator)

Word = Tuple[Generator, ...]
EMPTY_WORD: Word = ()


class Weight(NamedTuple):
    """a*xi^2 + b*xi + c, ordered lexicographically by (a, b, c)."""

    a: int
    b: int
    c: int


def g_(n: int) -> Generator:
    if n < 1:
        raise ValueError("G letters start at subscript 1")
    return Generator(Family.G, n - 1)


def gt_(n: int) -> Generator:
    if n < 1:
        raise ValueError("Gt letters start at subscript 1")
    return Generator(Family.Gtilde, n - 1)


def wm(k: int) -> Generator:
    if k < 0:
        raise ValueError("W-minus index must be >= 0")
    return Generator(Family.Wminus, k)


def wp(n: int) -> Generator:
    if n < 1:
        raise ValueError("W-plus letters start at subscript 1")
    return Generator(Family.Wplus, n - 1)


def w_sub(n: int) -> Generator:
    """The W letter with signed subscript n (n <= 0 is the minus family)."""
    return wm(-n) if n <= 0 else wp(n)


def symbol_from_subscript(family: str, n: int) -> Union[Generator, QRat]:
    """Resolve a subscripted symbol to a letter or, at subscript 0, a scalar.

    family is one of "W", "G", "Gt".  For W any integer subscript is a
    letter; for G/Gt subscript 0 denotes the scalar constant and
    negative subscripts are errors.
    """
    if family == "W":
        return w_sub(n)
    if family in ("G", "Gt"):
        if n < 0:
            raise IndexError(f"{family} subscript must be >= 0, got {n}")
        if n == 0:
            return qfield.G0
        return g_(n) if family == "G" else gt_(n)
    raise ValueError(f"unknown family {family!r}")


def word_degree(w: Word) -> int:
    return sum(a.degree() for a in w)


# letter -> its Weight; a letter's weight never changes, and
# `rewrite._step_deltas` reads two letter weights for each term of every
# rule body, which each suite step rebuilds from empty caches
_LETTER_WEIGHT: dict = {}


def letter_weight(letter: Generator) -> Weight:
    """letter.weight(), read through the `_LETTER_WEIGHT` memo."""
    lw = _LETTER_WEIGHT.get(letter)
    if lw is None:
        lw = _LETTER_WEIGHT[letter] = letter.weight()
    return lw


def word_weight(w: Word) -> Weight:
    m = len(w)
    a = b = c = 0
    for letter in w:
        la, lb, lc = letter_weight(letter)
        a += m * la
        b += m * lb
        c += m * lc
        m -= 1
    return Weight(a, b, c)


def first_descent(w: Word):
    """Index of the leftmost reducible adjacent pair, or None."""
    for i in range(1, len(w)):
        if w[i - 1] > w[i]:
            return i - 1
    return None


def is_irreducible(w: Word) -> bool:
    return first_descent(w) is None


class NCPoly:
    """A finite Q(q)-linear combination of words in the free algebra.

    Term mappings never store zero coefficients, so equality is
    structural.  Instances are treated as immutable.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        if isinstance(terms, dict):   # one coefficient per word: no sums
            self.terms = {w: qfield.of(c) for w, c in terms.items() if c}
        else:
            self.terms = lincomb([(QONE, {w: qfield.of(c)})
                                  for w, c in terms or () if c])

    # -- constructors ---------------------------------------------------

    @staticmethod
    def from_terms(terms: dict) -> "NCPoly":
        """The NCPoly holding the finished terms dict as it is: one nonzero
        QRat per word, neither embedded nor summed again."""
        out = NCPoly.__new__(NCPoly)
        out.terms = terms
        return out

    @staticmethod
    def sum(polys) -> "NCPoly":
        """The sum of the NCPolys in polys, each coefficient summed once."""
        return NCPoly.from_terms(lincomb([(QONE, p.terms) for p in polys]))

    @staticmethod
    def zero() -> "NCPoly":
        return NCPoly()

    @staticmethod
    def scalar(c) -> "NCPoly":
        return NCPoly({EMPTY_WORD: qfield.of(c) if not isinstance(c, QRat) else c})

    @staticmethod
    def one() -> "NCPoly":
        return NCPoly.scalar(QONE)

    @staticmethod
    def gen(g: Generator) -> "NCPoly":
        return NCPoly({(g,): QONE})

    @staticmethod
    def word(w: Iterable[Generator], coeff=QONE) -> "NCPoly":
        return NCPoly({tuple(w): coeff})

    @staticmethod
    def symbol(s: Union[Generator, QRat]) -> "NCPoly":
        if isinstance(s, Generator):
            return NCPoly.gen(s)
        return NCPoly.scalar(s)

    # -- structure --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def words(self):
        return self.terms.keys()

    def max_degree(self) -> int:
        return max((word_degree(w) for w in self.terms), default=0)

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: "NCPoly") -> "NCPoly":
        if not isinstance(other, NCPoly):
            return NotImplemented
        return NCPoly.from_terms(
            lincomb(((QONE, self.terms), (QONE, other.terms))))

    def __neg__(self) -> "NCPoly":
        return NCPoly.from_terms({w: -c for w, c in self.terms.items()})

    def __sub__(self, other: "NCPoly") -> "NCPoly":
        if not isinstance(other, NCPoly):
            return NotImplemented
        return NCPoly.from_terms(
            lincomb(((QONE, self.terms), (-QONE, other.terms))))

    def __mul__(self, other):
        if isinstance(other, NCPoly):
            return NCPoly.from_terms(
                lincomb([(c, {u + w: x for w, x in other.terms.items()})
                         for u, c in self.terms.items()]))
        if isinstance(other, (QRat, int)):
            return self._scaled(qfield.of(other))
        return NotImplemented

    # scalars commute with everything, and an NCPoly left factor never
    # reaches __rmul__, so word order only matters in __mul__
    __rmul__ = __mul__

    def _scaled(self, c: QRat) -> "NCPoly":
        if c.is_zero():
            return NCPoly()
        return NCPoly.from_terms(lincomb(((c, self.terms),)))

    def __eq__(self, other):
        if not isinstance(other, NCPoly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __repr__(self):
        return render_poly(self)


def commutator(x: NCPoly, y: NCPoly) -> NCPoly:
    return x * y - y * x


def q_commutator(x: NCPoly, y: NCPoly, power: int = 1) -> NCPoly:
    """[x, y]_{q^power} = q^power x y - q^-power y x."""
    return qfield.q_pow(power) * (x * y) - qfield.q_pow(-power) * (y * x)


# -- the automorphism sigma and the antiautomorphism dagger ---------------

# sigma swaps G with Gt and W- with W+, and dagger swaps G with Gt: with
# the family ranks 0 to 3, either swap is the XOR of the family bits with 3.
_FAMILY_SWAP = 3 << _K_BITS


def sigma_letter(g: Generator) -> Generator:
    return _letter(g ^ _FAMILY_SWAP)


def dagger_letter(g: Generator) -> Generator:
    if (g >> _K_BITS) % 3:   # a W letter is its own image
        return g
    return _letter(g ^ _FAMILY_SWAP)


def sigma(p: NCPoly) -> NCPoly:
    """The involutive automorphism swapping the two W and two G families."""
    return NCPoly.from_terms({tuple(sigma_letter(g) for g in w): c
                              for w, c in p.terms.items()})


def dagger(p: NCPoly) -> NCPoly:
    """The involutive antiautomorphism: reverses words, swaps G and Gt."""
    return NCPoly.from_terms({tuple(dagger_letter(g) for g in reversed(w)): c
                              for w, c in p.terms.items()})


def sigma_dagger(p: NCPoly) -> NCPoly:
    """sigma after dagger: reverses words and swaps W- with W+."""
    return sigma(dagger(p))


# -- the defining relations -------------------------------------------------


def defining_relations(kmax: int):
    """(label, poly) for the sixteen relation families, indices bounded.

    Each poly is LHS - RHS of one displayed equality and vanishes in the
    quotient algebra; chained displays contribute one poly per equality.
    Seven families are written out (3p1a, 3p2a, 3p4a, 3p5, 3p6, 3p10a and
    3p11); the other nine are their images under sigma and dagger:
    3p1b = -sigma(3p1a); 3p2b, 3p3a and 3p3b are dagger, sigma-dagger and
    sigma of 3p2a; 3p4b, 3p9 and 3p10b are sigma of 3p4a, 3p6 and 3p10a;
    3p7 = -dagger(3p6) and 3p8 = -sigma-dagger(3p6).
    """
    rho = qfield.RHO
    qp1 = qfield.q_int(2)  # q + q^-1
    out = []
    for k in range(kmax + 1):
        W0, Wk1 = NCPoly.gen(wm(0)), NCPoly.gen(wp(k + 1))
        Gk1, Gtk1 = NCPoly.gen(g_(k + 1)), NCPoly.gen(gt_(k + 1))
        r1 = commutator(W0, Wk1) - (Gtk1 - Gk1) * qp1.inverse()
        r2 = q_commutator(W0, Gk1) - rho * NCPoly.gen(wm(k + 1)) + rho * Wk1
        out += [(f"3p1a[k={k}]", r1), (f"3p1b[k={k}]", -sigma(r1)),
                (f"3p2a[k={k}]", r2), (f"3p2b[k={k}]", dagger(r2)),
                (f"3p3a[k={k}]", sigma_dagger(r2)), (f"3p3b[k={k}]", sigma(r2))]
    for k in range(kmax + 1):
        for l in range(kmax + 1):
            Wmk, Wml = NCPoly.gen(wm(k)), NCPoly.gen(wm(l))
            Wpk, Wpl = NCPoly.gen(wp(k + 1)), NCPoly.gen(wp(l + 1))
            Gk, Gl = NCPoly.gen(g_(k + 1)), NCPoly.gen(g_(l + 1))
            Gtk, Gtl = NCPoly.gen(gt_(k + 1)), NCPoly.gen(gt_(l + 1))
            r4, r10 = commutator(Wmk, Wml), commutator(Gk, Gl)
            r6 = commutator(Wmk, Gl) + commutator(Gk, Wml)
            kl = f"[k={k},l={l}]"
            out += [
                (f"3p4a{kl}", r4), (f"3p4b{kl}", sigma(r4)),
                (f"3p5{kl}", commutator(Wmk, Wpl) + commutator(Wpk, Wml)),
                (f"3p6{kl}", r6), (f"3p7{kl}", -dagger(r6)),
                (f"3p8{kl}", -sigma_dagger(r6)), (f"3p9{kl}", sigma(r6)),
                (f"3p10a{kl}", r10), (f"3p10b{kl}", sigma(r10)),
                (f"3p11{kl}", commutator(Gtk, Gl) + commutator(Gk, Gtl))]
    return out


# -- rendering ----------------------------------------------------------------


# word -> its text; render_poly renders every term of every element, and a
# warm normalize stream renders the same normal-form words again and again.
# A word enters only while the memo holds fewer than _WORD_TEXT_SIZE
# entries, so past the cap a word is rendered letter by letter each time;
# `rewrite.clear_caches` empties it.
_WORD_TEXT: dict = {}
_WORD_TEXT_SIZE = 65536


def render_word(w: Word) -> str:
    t = _WORD_TEXT.get(w)
    if t is None:
        t = "*".join([letter.text() for letter in w]) if w else "1"
        if len(_WORD_TEXT) < _WORD_TEXT_SIZE:
            _WORD_TEXT[w] = t
    return t


def render_poly(p: NCPoly) -> str:
    terms = p.terms
    if not terms:
        return "0"
    texts = _WORD_TEXT
    scalar_text = qfield.scalar_text
    parts = []
    for w in sorted(terms):
        c = terms[w]
        if not w:
            parts.append(scalar_text(c))
            continue
        t = texts.get(w) or render_word(w)
        parts.append(t if c is QONE else f"{scalar_text(c)}*{t}")
    return " + ".join(parts)
