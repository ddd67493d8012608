"""Exact arithmetic in Q(q), the field of rational functions of q.

Values are kept in the factored canonical form

    (p/r) * q^a * (q - 1)^b * (q + 1)^c * (q^2 + 1)^d * U(q) / V(q)

where a, b, c, d are integers (negative exponents are denominator
factors) and U, V are primitive integer polynomials with positive
leading coefficient, nonzero constant term, none of the basis factors,
and gcd(U, V) = 1.  Powers of q, q - 1/q and q + 1/q make up every
denominator produced by the reduction rules, so most values are factor-
basis monomials (U = V = 1) and the operators take shortcuts chosen by
the operands' shape alone:

* a product with a monomial operand adds exponents and multiplies the
  rational prefactors; the other operand's U/V carry over unchanged,
  because they are already canonical and a monomial brings no new
  polynomial factor, so no normalization runs;
* a sum of two values with equal exponents, U and V adds only the
  prefactors (zero if they cancel);
* every other result is normalized by `_canon`, which strips a basis
  factor only after a root test shows that it divides: q - 1 and q + 1
  divide U iff U(1) = 0 and U(-1) = 0, q^2 + 1 iff U(i) = 0.  A general
  polynomial gcd runs only when V != 1 (denominators such as
  q^n + q^-n), which is rare.

The exposed numerator/denominator pair is always fully reduced over
Z[q] with a positive-leading-coefficient denominator, so equality and
hashing are structural.  Values are immutable and safe to share.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

# Dense integer polynomials in q, low degree first, no trailing zeros.
P_ZERO: tuple = ()
P_ONE = (1,)
FM = (-1, 1)     # q - 1
FP = (1, 1)      # q + 1
F2 = (1, 0, 1)   # q^2 + 1


def p_trim(cs):
    n = len(cs)
    while n and cs[n - 1] == 0:
        n -= 1
    return tuple(cs[:n])


def p_add(f, g):
    if len(f) < len(g):
        f, g = g, f
    out = list(f)
    for i, c in enumerate(g):
        out[i] += c
    return p_trim(out)


def p_neg(f):
    return tuple(-c for c in f)


def p_sub(f, g):
    return p_add(f, p_neg(g))


def p_mul(f, g):
    if not f or not g:
        return P_ZERO
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] += a * b
    return p_trim(out)


def p_scale(f, k):
    if k == 0:
        return P_ZERO
    return tuple(c * k for c in f)


def p_div_exact(f, d):
    """Quotient f/d in Z[q], or None when the division is not exact."""
    if not f:
        return P_ZERO
    if not d:
        raise ZeroDivisionError("polynomial division by zero")
    if len(f) < len(d):
        return None
    rem = list(f)
    lead = d[-1]
    qlen = len(f) - len(d) + 1
    quo = [0] * qlen
    for i in range(qlen - 1, -1, -1):
        c = rem[i + len(d) - 1]
        if c % lead:
            return None
        k = c // lead
        quo[i] = k
        if k:
            for j, dc in enumerate(d):
                rem[i + j] -= k * dc
    if any(rem):
        return None
    return p_trim(quo)


def p_content(f):
    c = 0
    for a in f:
        c = gcd(c, a)
        if c == 1:
            break
    return c


def p_eval(f, x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(f):
        acc = acc * x + c
    return acc


def p_gcd(f, g):
    """Primitive gcd in Z[q] (monic Euclid over Q; only hit when V != 1)."""
    if not f or not g:
        base = f or g
        if not base:
            return P_ZERO
        c = p_content(base)
        base = tuple(x // c for x in base)
        return p_neg(base) if base[-1] < 0 else base
    a = [Fraction(c) for c in f]
    b = [Fraction(c) for c in g]
    while b:
        lb = b[-1]
        db = len(b) - 1
        while len(a) - 1 >= db:
            la = a[-1]
            if la:
                k = la / lb
                sh = len(a) - 1 - db
                for j in range(db + 1):
                    a[sh + j] -= k * b[j]
            a.pop()
            while a and a[-1] == 0:
                a.pop()
            if not a:
                break
        a, b = b, a
    den = 1
    for c in a:
        den = lcm(den, c.denominator)
    ints = p_trim([int(c * den) for c in a])
    c = p_content(ints)
    ints = tuple(x // c for x in ints)
    return p_neg(ints) if ints[-1] < 0 else ints


def _divides(f, u):
    """Whether the monic basis factor f divides u: u vanishes at its roots."""
    if f == FM:
        return sum(u) == 0
    if f == FP:
        return sum(u[::2]) == sum(u[1::2])
    # F2: the real and imaginary parts of u(i)
    return sum(u[::4]) == sum(u[2::4]) and sum(u[1::4]) == sum(u[3::4])


def _strip(u, f):
    """(u / f^n, n) for the largest n with f^n dividing u."""
    n = 0
    while len(u) >= len(f) and _divides(f, u):
        u = p_div_exact(u, f)
        n += 1
    return u, n


@lru_cache(maxsize=None)
def _mono(a, b, c, d):
    # q^a * (q-1)^b * (q+1)^c * (q^2+1)^d with all exponents >= 0
    out = (1,) if a == 0 else tuple([0] * a + [1])
    for _ in range(b):
        out = p_mul(out, FM)
    for _ in range(c):
        out = p_mul(out, FP)
    for _ in range(d):
        out = p_mul(out, F2)
    return out


class QRat:
    """An element of Q(q).  Use module factories; instances are immutable."""

    __slots__ = ("p", "r", "a", "b", "c", "d", "u", "v")

    def __init__(self):
        raise TypeError("use qfield factories (of, q_pow, q_int, ...) to build QRat")

    # -- construction ------------------------------------------------

    @staticmethod
    def _make(p, r, a, b, c, d, u, v):
        self = object.__new__(QRat)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "v", v)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("QRat is immutable")

    # -- predicates ---------------------------------------------------

    def is_zero(self):
        return self.p == 0

    def is_one(self):
        return (self.p, self.r, self.a, self.b, self.c, self.d, self.u,
                self.v) == (1, 1, 0, 0, 0, 0, P_ONE, P_ONE)

    def __bool__(self):
        return self.p != 0

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other):
        other = _co(other)
        if other is NotImplemented:
            return NotImplemented
        x, y = self, other
        if x.p == 0:
            return y
        if y.p == 0:
            return x
        if (x.a == y.a and x.b == y.b and x.c == y.c and x.d == y.d
                and x.u == y.u and x.v == y.v):
            p = x.p * y.r + y.p * x.r
            if p == 0:
                return QZERO
            r = x.r * y.r
            g = gcd(p, r)
            return QRat._make(p // g, r // g, x.a, x.b, x.c, x.d, x.u, x.v)
        a = min(x.a, y.a)
        b = min(x.b, y.b)
        c = min(x.c, y.c)
        d = min(x.d, y.d)
        # t1/den + t2/den over the common factor-basis part, skipping
        # products with U or V = 1
        t1 = _mono(x.a - a, x.b - b, x.c - c, x.d - d)
        t2 = _mono(y.a - a, y.b - b, y.c - c, y.d - d)
        if x.u != P_ONE:
            t1 = p_mul(t1, x.u)
        if y.u != P_ONE:
            t2 = p_mul(t2, y.u)
        if y.v != P_ONE:
            t1 = p_mul(t1, y.v)
        if x.v != P_ONE:
            t2 = p_mul(t2, x.v)
        if x.v == P_ONE:
            den = y.v
        elif y.v == P_ONE:
            den = x.v
        else:
            den = p_mul(x.v, y.v)
        return _canon(1, x.r * y.r, a, b, c, d,
                      p_add(p_scale(t1, x.p * y.r), p_scale(t2, y.p * x.r)), den)

    __radd__ = __add__

    def __neg__(self):
        if self.p == 0:
            return self
        return QRat._make(-self.p, self.r, self.a, self.b, self.c, self.d,
                          self.u, self.v)

    def __sub__(self, other):
        other = _co(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _co(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = _co(other)
        if other is NotImplemented:
            return NotImplemented
        x, y = self, other
        if x.p == 0 or y.p == 0:
            return QZERO
        if x.u == P_ONE and x.v == P_ONE:
            x, y = y, x
        if y.u == P_ONE and y.v == P_ONE:
            p = x.p * y.p
            r = x.r * y.r
            g = gcd(p, r)
            return QRat._make(p // g, r // g, x.a + y.a, x.b + y.b, x.c + y.c,
                              x.d + y.d, x.u, x.v)
        return _canon(x.p * y.p, x.r * y.r, x.a + y.a, x.b + y.b, x.c + y.c,
                      x.d + y.d, p_mul(x.u, y.u), p_mul(x.v, y.v))

    __rmul__ = __mul__

    def inverse(self):
        if self.p == 0:
            raise ZeroDivisionError("inverse of zero in Q(q)")
        sign = 1 if self.p > 0 else -1
        return QRat._make(sign * self.r, abs(self.p), -self.a, -self.b,
                          -self.c, -self.d, self.v, self.u)

    def __truediv__(self, other):
        other = _co(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = _co(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self.inverse()

    def __pow__(self, n: int):
        if n == 0:
            return QONE
        base = self if n > 0 else self.inverse()
        out = base
        for _ in range(abs(n) - 1):
            out = out * base
        return out

    # -- comparison / hashing ------------------------------------------

    def __eq__(self, other):
        other = _co(other)
        if other is NotImplemented:
            return NotImplemented
        return (self.p, self.r, self.a, self.b, self.c, self.d, self.u,
                self.v) == (other.p, other.r, other.a, other.b, other.c,
                            other.d, other.u, other.v)

    def __hash__(self):
        return hash((self.p, self.r, self.a, self.b, self.c, self.d, self.u,
                     self.v))

    # -- views ----------------------------------------------------------

    def numerator(self):
        """The numerator of the reduced fraction, as a Z[q] tuple."""
        return p_scale(p_mul(_mono(max(self.a, 0), max(self.b, 0),
                                   max(self.c, 0), max(self.d, 0)), self.u),
                       self.p)

    def denominator(self):
        return p_scale(p_mul(_mono(max(-self.a, 0), max(-self.b, 0),
                                   max(-self.c, 0), max(-self.d, 0)), self.v),
                       self.r)

    def numerator_content(self):
        return abs(self.p)

    def evaluate(self, q0: Fraction) -> Fraction:
        """Evaluate at a rational point q0 (not 0 or a root of q^2 - 1)."""
        q0 = Fraction(q0)
        num = Fraction(self.p) * q0 ** self.a
        num *= (q0 - 1) ** self.b
        num *= (q0 + 1) ** self.c
        num *= (q0 * q0 + 1) ** self.d
        return num * p_eval(self.u, q0) / (self.r * p_eval(self.v, q0))

    def __repr__(self):
        return scalar_text(self)


def _canon(p, r, a, b, c, d, u, v):
    if p == 0 or not u:
        return QZERO
    if not v:
        raise ZeroDivisionError("zero denominator in Q(q)")
    if u[-1] < 0:
        u, p = p_neg(u), -p
    if v[-1] < 0:
        v, p = p_neg(v), -p
    cu = p_content(u)
    if cu > 1:
        u = tuple(x // cu for x in u)
        p *= cu
    cv = p_content(v)
    if cv > 1:
        v = tuple(x // cv for x in v)
        r *= cv
    g = gcd(p, r)
    if g > 1:
        p //= g
        r //= g
    z = 0
    while u[z] == 0:
        z += 1
    if z:
        u = u[z:]
        a += z
    z = 0
    while v[z] == 0:
        z += 1
    if z:
        v = v[z:]
        a -= z
    u, n = _strip(u, FM)
    b += n
    v, n = _strip(v, FM)
    b -= n
    u, n = _strip(u, FP)
    c += n
    v, n = _strip(v, FP)
    c -= n
    u, n = _strip(u, F2)
    d += n
    v, n = _strip(v, F2)
    d -= n
    if v != P_ONE and u != P_ONE:
        g = p_gcd(u, v)
        if len(g) > 1:
            u = p_div_exact(u, g)
            v = p_div_exact(v, g)
    return QRat._make(p, r, a, b, c, d, u, v)


QZERO = QRat._make(0, 1, 0, 0, 0, 0, P_ONE, P_ONE)
QONE = QRat._make(1, 1, 0, 0, 0, 0, P_ONE, P_ONE)
Q = QRat._make(1, 1, 1, 0, 0, 0, P_ONE, P_ONE)


def _co(x):
    if isinstance(x, QRat):
        return x
    if isinstance(x, int):
        return of(x)
    if isinstance(x, Fraction):
        return of(x)
    return NotImplemented


def of(x) -> QRat:
    """Embed an int or Fraction into Q(q)."""
    if isinstance(x, QRat):
        return x
    if isinstance(x, int):
        if x == 0:
            return QZERO
        return _canon(x, 1, 0, 0, 0, 0, P_ONE, P_ONE)
    if isinstance(x, Fraction):
        if x == 0:
            return QZERO
        return _canon(x.numerator, x.denominator, 0, 0, 0, 0, P_ONE, P_ONE)
    raise TypeError(f"cannot embed {type(x).__name__} into Q(q)")


def q_pow(n: int) -> QRat:
    """q^n for any integer n (q^-n is the honest fraction 1/q^n)."""
    if n == 0:
        return QONE
    return QRat._make(1, 1, n, 0, 0, 0, P_ONE, P_ONE)


def from_num_den(num, den) -> QRat:
    """Build from a numerator/denominator pair of Z[q] coefficient tuples."""
    return _canon(1, 1, 0, 0, 0, 0, p_trim(num), p_trim(den))


def q_int(n: int) -> QRat:
    """The quantum integer [n]_q = (q^n - q^-n)/(q - q^-1)."""
    if n == 0:
        return QZERO
    return (q_pow(n) - q_pow(-n)) / (Q - q_pow(-1))


def rho_const() -> QRat:
    """The structure constant -(q^2 - q^-2)^2 of the defining relations."""
    return -((q_pow(2) - q_pow(-2)) ** 2)


def g0_const() -> QRat:
    """The scalar value shared by the two degree-zero G-symbols."""
    return -(Q - q_pow(-1)) * q_int(2) ** 2


# -- rendering --------------------------------------------------------------


def poly_text(f) -> str:
    if not f:
        return "0"
    parts = []
    for i in range(len(f) - 1, -1, -1):
        c = f[i]
        if c == 0:
            continue
        if i == 0:
            mono = str(abs(c))
        else:
            head = "" if abs(c) == 1 else f"{abs(c)}*"
            mono = f"{head}q" if i == 1 else f"{head}q^{i}"
        if not parts:
            parts.append(mono if c > 0 else f"-{mono}")
        else:
            parts.append(f"+ {mono}" if c > 0 else f"- {mono}")
    return " ".join(parts)


def scalar_text(x: QRat) -> str:
    """Render x so that the CLI scalar grammar parses it back exactly."""
    num = x.numerator()
    den = x.denominator()
    if den == P_ONE:
        return f"({poly_text(num)})"
    if den[-1] == 1 and not any(den[:-1]):
        return f"({poly_text(num)})*q^-{len(den) - 1}"
    return f"({poly_text(num)})/({poly_text(den)})"
