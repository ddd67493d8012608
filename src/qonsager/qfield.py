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
* a sum of values of one shape (exponents, U and V) adds only the
  prefactors (zero if they cancel);
* every other result is normalized by `_canon`.  One routine, `_factor`,
  makes U and V canonical alike: sign and content, the power of q, then
  each basis factor, stripped only after a root test shows that it
  divides (q - 1 and q + 1 divide U iff U(1) = 0 and U(-1) = 0, q^2 + 1
  iff U(i) = 0).  When V = 1, the usual case, V is not factored; V's
  factoring and the general polynomial gcd run only when V != 1
  (denominators such as q^n + q^-n), which is rare;
* values of several shapes (two in `+`, many sums at once in
  `lincomb`) are grouped by `_groups` and meet in `_sum` over one
  common factor-basis denominator: each live group's basis-monomial
  expansion (`_mono`), times its integer weight and the other groups'
  V's, is added into one list of coefficients at its offset in q, and
  `_canon` canonicalizes the met numerator and denominator once;
* the polynomial steps are memoized by shape: `_shape` factors each
  (U, V) pair and `_mono` expands each basis monomial times a cofactor
  once, while the prefactor and exponent arithmetic stays outside the
  key.  `_sum` meets its terms relative to their minimal exponents and
  divides their integer weights by their content, so a sum rescaled by a
  factor-basis monomial times an integer hands `_shape` the same pair, a
  hit.  Only expansions of at most `_MEMO_CAP` (64) coefficients enter;
  the memos hold 4,096 entries each.  Larger ones run the same functions
  unmemoized.  `clear_memos` empties the memos;
* values are hash-consed completely: `_make`, the one place a value is
  built, returns the live object for a canonical field tuple from the
  value table `_VALUES`, a `weakref.WeakValueDictionary` with no cap, and
  stores every value it builds there.  So identity is equality: two live
  values are equal exactly when they are the same object, `__eq__` is
  `is` once an int or Fraction operand is embedded, `is_one` is `is QONE`,
  and the hash is `object.__hash__`, computed in C from the address.  A
  value leaves the table when its last reference goes, so the table holds
  only live values and `clear_memos` leaves it alone; a value rebuilt
  later is a new object, equal to nothing that is gone.  The normal-form
  caches hold one object per distinct coefficient (a cold bound-4
  ambiguity run stores 248,392 coefficients with 689 distinct values);
* `lincomb` is the one place coefficients are accumulated: the normal
  forms of `rewrite` and NCPoly's `+`, `-`, `*`, `sum` and
  constructor from (word, coefficient) pairs (and through them the series
  and central sums) all combine terms there.  While no key has been
  reached, a pair's summands are copied whole with `dict.update`, a
  C-level copy; every later pair is merged in one pass over its terms;
* a product c * x in `lincomb` with c != 1 is looked up in c's product
  table inside that merge pass, with no list of products built first:
  `_PRODUCTS` maps each c to a table {x: c * x}, and a miss is
  computed by `__mul__` (a cold bound-4 ambiguity run forms 605,563 such
  products, of 1,622 distinct pairs (c, x) over 16 distinct c).  A
  product enters only while the tables hold fewer than 65,536 entries in
  all (`_PRODUCTS_SIZE`) and only if c, x and c * x each have
  len(U) + len(V) <= `_MEMO_CAP`; any other product is computed each
  time.  `clear_memos` empties it;
* a sum in `lincomb` at a key reached more than once is memoized by its
  summands: `_SUMS` maps the tuple of the products c * x, in the order
  they arrived, to their sum (a cold bound-4 ambiguity run looks up
  128,255 such sums and stores 7,122).  A sum enters only while the
  memo holds fewer than 65,536 entries (`_SUMS_SIZE`) and only if every
  summand and the sum have len(U) + len(V) <= `_MEMO_CAP` (U and V belong
  to the shape, so the summands are checked once per shape); any other
  sum is grouped by shape and met in `_sum`.  `clear_memos` empties it;
* a value's text is kept on the value: `scalar_text` stores it in the
  `_text` slot at the first render and returns it from there afterwards
  (`_make` leaves the slot unset).  This is not a memo: there is no key,
  no cap and nothing to clear, because the text lives and dies with its
  one object and is about the size of the value's own fields.  Hash-
  consing is what makes it pay: the normal forms share one object per
  value, so a value printed in many expressions is rendered once (a
  pass of the normalize benchmark, seed 1, prints 106,429 coefficients
  with 2,949 distinct values, one object each).  Equality, hashing and
  pickling never read the slot, so a value rebuilt after its last
  reference went renders its text again;
* the scalars of the paper's relations are module values, built once at
  import after `q_int`: `QM` = q - q^-1, `Q2M` = q^2 - q^-2, `RHO` =
  -(q^2 - q^-2)^2 and `G0` = -(q - q^-1)[2]_q^2, the value of the
  degree-zero G symbols.  The other modules read them and rebuild none.

The exposed numerator/denominator pair is always fully reduced over
Z[q] with a positive-leading-coefficient denominator, so the field tuple
is canonical and interning it makes equality identity.  Values are
immutable and safe to share: `QRat` refuses attribute assignment and
deletion (`scalar_text` fills the text slot through the slot's
descriptor, not by assignment).  `_make` builds each value with plain
slot stores on `_Slots`, the layout without that guard, and then retags
it as `QRat`, its subclass that adds no slot; pickling and copying
return the value through `_make`, so a live value comes back as itself.
"""

from __future__ import annotations

import weakref
from fractions import Fraction
from functools import lru_cache, reduce
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


def _primitive(f):
    """(k, f/k) for the content k of f, signed so that f/k has a positive
    leading coefficient; P_ZERO gives (0, P_ZERO)."""
    k = p_content(f)
    if f and f[-1] < 0:
        k = -k
    return k, (f if k == 1 else tuple(x // k for x in f))


def p_gcd(f, g):
    """Primitive gcd in Z[q] with a positive leading coefficient (monic
    Euclid over Q; only hit when V != 1).  A zero argument gives the other
    one made primitive, and two zeros give P_ZERO."""
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
    return _primitive(p_trim([int(c * den) for c in a]))[1]


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


# Bounds of the polynomial memos (see the module docstring).  The largest
# (U, V) pair of the benchmark suites has 30 coefficients; inputs such as
# [10000]q run through __wrapped__ instead, so no entry grows with them.
_MEMO_CAP = 64
_MEMO_SIZE = 4096


@lru_cache(maxsize=_MEMO_SIZE)
def _mono(a, b, c, d, w=P_ONE):
    # q^a * (q-1)^b * (q+1)^c * (q^2+1)^d * w with all exponents >= 0
    out = (1,) if a == 0 else tuple([0] * a + [1])
    for _ in range(b):
        out = p_mul(out, FM)
    for _ in range(c):
        out = p_mul(out, FP)
    for _ in range(d):
        out = p_mul(out, F2)
    if w != P_ONE:
        out = p_mul(out, w)
    return out


def _expand(k, b, c, d, w):
    """k * (q-1)^b * (q+1)^c * (q^2+1)^d * w, with b, c, d >= 0, as a Z[q]
    tuple; the scaling by k = 1 is skipped."""
    if b + c + 2 * d + len(w) <= _MEMO_CAP:
        f = _mono(0, b, c, d, w)
    else:
        f = _mono.__wrapped__(0, b, c, d, w)
    if k != 1:
        f = p_scale(f, k)
    return f


class _Slots:
    """QRat's slot layout without the immutability guard (see `_make`): the
    fields, the value's text, stored by `scalar_text` at the first render
    (`_make` leaves it unset), and the weak reference of `_VALUES`."""

    __slots__ = ("p", "r", "a", "b", "c", "d", "u", "v", "_text",
                 "__weakref__")


# The value table (see the module docstring): every live value under its
# field tuple.  `_make` reads the plain dict of weak references under it.
_VALUES = weakref.WeakValueDictionary()
_VALUE_REFS = _VALUES.data


def _make(p, r, a, b, c, d, u, v):
    key = (p, r, a, b, c, d, u, v)
    ref = _VALUE_REFS.get(key)
    if ref is not None:
        self = ref()
        if self is not None:
            return self
    # plain slot stores on the unguarded layout, then a retag as QRat:
    # a fifth of the cost of eight object.__setattr__ calls
    self = object.__new__(_Slots)
    self.p = p
    self.r = r
    self.a = a
    self.b = b
    self.c = c
    self.d = d
    self.u = u
    self.v = v
    self.__class__ = QRat
    _VALUES[key] = self
    return self


class QRat(_Slots):
    """An element of Q(q).  Use module factories; instances are immutable."""

    __slots__ = ()

    def __init__(self):
        raise TypeError("use qfield factories (of, q_pow, q_int, ...) to build QRat")

    def __setattr__(self, name, value):
        raise AttributeError("QRat is immutable")

    def __delattr__(self, name):
        raise AttributeError("QRat is immutable")

    def __reduce__(self):
        return _make, (self.p, self.r, self.a, self.b, self.c, self.d, self.u,
                       self.v)

    # -- predicates ---------------------------------------------------

    def is_zero(self):
        return self.p == 0

    def is_one(self):
        return self is QONE

    def __bool__(self):
        return self.p != 0

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other):
        if type(other) is not QRat:
            other = _co(other)
            if other is NotImplemented:
                return NotImplemented
        x, y = self, other
        if x.p == 0:
            return y
        if y.p == 0:
            return x
        return _sum(_groups((x, y)))

    __radd__ = __add__

    def __neg__(self):
        if self.p == 0:
            return self
        return _make(-self.p, self.r, self.a, self.b, self.c, self.d, self.u,
                     self.v)

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
        if type(other) is not QRat:
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
            return _make(p // g, r // g, x.a + y.a, x.b + y.b, x.c + y.c,
                         x.d + y.d, x.u, x.v)
        return _canon(x.p * y.p, x.r * y.r, x.a + y.a, x.b + y.b, x.c + y.c,
                      x.d + y.d, p_mul(x.u, y.u), p_mul(x.v, y.v))

    __rmul__ = __mul__

    def inverse(self):
        if self.p == 0:
            raise ZeroDivisionError("inverse of zero in Q(q)")
        sign = 1 if self.p > 0 else -1
        return _make(sign * self.r, abs(self.p), -self.a, -self.b, -self.c,
                     -self.d, self.v, self.u)

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
        # values are interned (see `_make`): equal values are one object
        if type(other) is not QRat:
            other = _co(other)
            if other is NotImplemented:
                return NotImplemented
        return self is other

    __hash__ = object.__hash__

    # -- views ----------------------------------------------------------

    def numerator(self):
        """The numerator of the reduced fraction, as a Z[q] tuple."""
        return (0,) * max(self.a, 0) + _expand(
            self.p, max(self.b, 0), max(self.c, 0), max(self.d, 0), self.u)

    def denominator(self):
        return (0,) * max(-self.a, 0) + _expand(
            self.r, max(-self.b, 0), max(-self.c, 0), max(-self.d, 0), self.v)

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
    shape = _shape if len(u) + len(v) <= _MEMO_CAP else _shape.__wrapped__
    k, m, da, db, dc, dd, u, v = shape(u, v)
    p, r = p * k, r * m
    g = gcd(p, r)
    return _make(p // g, r // g, a + da, b + db, c + dc, d + dd, u, v)


def _factor(f):
    """(k, (a, b, c, d), F) with f = k * q^a * (q-1)^b * (q+1)^c *
    (q^2+1)^d * F for a nonzero Z[q] tuple f, where F is canonical as U is:
    sign and content go to k, and the basis factors, found by root tests,
    to b, c and d."""
    k, f = _primitive(f)
    a = 0
    while f[a] == 0:
        a += 1
    f = f[a:]
    f, b = _strip(f, FM)
    f, c = _strip(f, FP)
    f, d = _strip(f, F2)
    return k, (a, b, c, d), f


@lru_cache(maxsize=_MEMO_SIZE)
def _shape(u, v):
    """The canonical form of U/V for nonzero Z[q] tuples u and v.

    Returns (k, m, da, db, dc, dd, U, V) with
    u/v = (k/m) * q^da * (q-1)^db * (q+1)^dc * (q^2+1)^dd * U/V,
    where U and V are canonical as in the module docstring.  One `_factor`
    splits u and v alike; for V = 1, the common case, v is not factored.
    Otherwise the general gcd cancels between U and V when neither is 1,
    the sign of V's factor moves to k, and the exponents are differences.
    """
    k, (da, db, dc, dd), u = _factor(u)
    if v == P_ONE:
        return k, 1, da, db, dc, dd, u, v
    m, (ea, eb, ec, ed), v = _factor(v)
    if u != P_ONE and v != P_ONE:
        g = p_gcd(u, v)
        if len(g) > 1:
            u = p_div_exact(u, g)
            v = p_div_exact(v, g)
    if m < 0:
        k, m = -k, -m
    return k, m, da - ea, db - eb, dc - ec, dd - ed, u, v


def lincomb(scaled) -> dict:
    """The nonzero entries of sum(c * t) over the (c, t) pairs, where each
    c is nonzero and each t maps keys to nonzero values.

    For c = 1 the values of t are the summands themselves; for any other c
    each product c * x is looked up in c's table of the product memo
    `_PRODUCTS`, and `_product` computes a missing one.  While no key has
    been reached, the summands of a pair are copied whole with
    `dict.update`; every later pair is merged in one pass over t, which
    looks each product up as it reaches it.  A key reached once gets its
    summand; a key reached again collects its summands in a list, in the
    order they arrived, and its sum is looked up in the sum memo `_SUMS`
    by the tuple of the summands; `_sum_terms` computes a missing one.
    NCPoly sums, products and scalar multiples all combine their terms
    here.
    """
    acc: dict = {}
    shared = []   # the keys reached more than once
    for c, t in scaled:
        if c is QONE:
            if not acc:
                acc.update(t)   # no key reached yet: a C-level copy
                continue
            for key, x in t.items():
                prev = acc.get(key)
                if prev is None:
                    acc[key] = x
                elif type(prev) is list:
                    prev.append(x)
                else:
                    shared.append(key)
                    acc[key] = [prev, x]
            continue
        table = _PRODUCTS.get(c) or {}
        if not acc:
            try:
                acc.update([(key, table[x]) for key, x in t.items()])
            except KeyError:   # a miss; the caps are checked only there
                acc.update([(key, table[x] if x in table
                             else _product(c, x, table))
                            for key, x in t.items()])
            continue
        for key, x in t.items():
            y = table.get(x)
            if y is None:   # a miss; the caps are checked only there
                y = _product(c, x, table)
            prev = acc.get(key)
            if prev is None:
                acc[key] = y
            elif type(prev) is list:
                prev.append(y)
            else:
                shared.append(key)
                acc[key] = [prev, y]
    for key in shared:
        terms = tuple(acc[key])
        try:
            s = _SUMS[terms]
        except KeyError:   # a miss; the caps are checked only here
            s = _sum_terms(terms)
        if s.p:
            acc[key] = s
        else:
            del acc[key]
    return acc


def memo_sized(x: QRat) -> bool:
    """Whether x may enter a memo: len(U) + len(V) <= `_MEMO_CAP`."""
    return len(x.u) + len(x.v) <= _MEMO_CAP


# The product memo (see the module docstring): c -> {x: c * x}.  Bound 6
# of the ambiguity suite stores 2,382 products over 16 c, the word
# Gt[4]*W[4]*W[-3]*G[4] 15,666, and `check matrix --order 5` 5,805 over 870 c.
_PRODUCTS: dict = {}
_PRODUCTS_SIZE = 65536
_products_stored = 0   # the entries of all the tables together


def _product(c: QRat, x: QRat, table: dict) -> QRat:
    """c * x, stored in table, c's table of `_PRODUCTS`, under the caps."""
    global _products_stored
    y = c * x
    if (_products_stored < _PRODUCTS_SIZE
            and memo_sized(c) and memo_sized(x) and memo_sized(y)):
        _PRODUCTS.setdefault(c, table)[x] = y
        _products_stored += 1
    return y


# The sum memo (see the module docstring): bound 6 of the ambiguity suite
# stores about 15,000 sums, the word Gt[4]*W[4]*W[-3]*G[4] about 28,000.
_SUMS: dict = {}
_SUMS_SIZE = 65536


def _sum_terms(terms) -> QRat:
    """The sum of the values in terms, finished by `_sum`; stored in `_SUMS`
    under the caps.  U and V belong to a shape, so the summands' sizes are
    checked once per shape of `_groups`, not once per summand."""
    groups = _groups(terms)
    s = _sum(groups)
    if (len(_SUMS) < _SUMS_SIZE and memo_sized(s)
            and all([len(key[4]) + len(key[5]) <= _MEMO_CAP
                     for key in groups])):
        _SUMS[terms] = s
    return s


def _groups(values) -> dict:
    """The values grouped by shape (a, b, c, d, U, V) as {shape: [p, r]},
    the prefactors of one shape added: the input of `_sum`."""
    groups: dict = {}
    for x in values:
        shape = (x.a, x.b, x.c, x.d, x.u, x.v)
        g = groups.get(shape)
        if g is None:
            groups[shape] = [x.p, x.r]
        elif g[1] == x.r:
            g[0] += x.p
        else:
            g[0] = g[0] * x.r + x.p * g[1]
            g[1] *= x.r
    return groups


def _sum(groups) -> QRat:
    """The sum of the groups {(a, b, c, d, U, V): [p, r]}: the terms meet
    over the minimal exponents, the lcm of the r's, the content n of the
    integer weights and the product of the distinct V's.  Each live group's
    expansion (`_expand` of its exponents above the minima, times U and the
    other groups' V's) is added, times its weight over n, into one list of
    coefficients at its offset in q, and `_canon` canonicalizes the met
    numerator and denominator once."""
    live = [(key, g) for key, g in groups.items() if g[0]]
    if len(live) < 2:
        if not live:
            return QZERO
        key, (p, r) = live[0]
        g = gcd(p, r)
        return _make(p // g, r // g, *key)
    ka, kb, kc, kd, _, kv = zip(*[key for key, _ in live])
    ma, mb, mc, md = min(ka), min(kb), min(kc), min(kd)
    rr = lcm(*[r for _, (_, r) in live])
    ws = [p * (rr // r) for _, (p, r) in live]
    n = gcd(*ws)
    vs = [v for v in dict.fromkeys(kv) if v != P_ONE]
    num = []   # extended to the end of the longest expansion so far
    for ((a, b, c, d, u, v), _), w in zip(live, ws):
        for x in vs:
            if x != v:
                u = p_mul(u, x)
        f = _expand(1, b - mb, c - mc, d - md, u)
        i = a - ma
        end = i + len(f)
        if end > len(num):
            num += [0] * (end - len(num))
        k = w // n
        for x in f:
            num[i] += k * x
            i += 1
    return _canon(n, rr, ma, mb, mc, md, p_trim(num),
                  reduce(p_mul, vs, P_ONE))


QZERO = _make(0, 1, 0, 0, 0, 0, P_ONE, P_ONE)
QONE = _make(1, 1, 0, 0, 0, 0, P_ONE, P_ONE)
Q = _make(1, 1, 1, 0, 0, 0, P_ONE, P_ONE)


def clear_memos():
    """Empty the polynomial memos and the product and sum memos.  The value
    table holds only live values, so it is left alone."""
    global _products_stored
    _shape.cache_clear()
    _mono.cache_clear()
    _PRODUCTS.clear()
    _products_stored = 0
    _SUMS.clear()


def _co(x):
    if isinstance(x, QRat):
        return x
    if type(x) is int or isinstance(x, Fraction):
        return of(x)
    return NotImplemented


def of(x) -> QRat:
    """Embed an int or Fraction into Q(q).  Only an exact int is a scalar:
    the letters of `words` are ints too, and never embed."""
    if isinstance(x, QRat):
        return x
    if type(x) is int:
        if x == 0:
            return QZERO
        return _make(x, 1, 0, 0, 0, 0, P_ONE, P_ONE)   # already canonical
    if isinstance(x, Fraction):
        if x == 0:
            return QZERO
        return _canon(x.numerator, x.denominator, 0, 0, 0, 0, P_ONE, P_ONE)
    raise TypeError(f"cannot embed {type(x).__name__} into Q(q)")


def q_pow(n: int) -> QRat:
    """q^n for any integer n (q^-n is the honest fraction 1/q^n)."""
    if n == 0:
        return QONE
    return _make(1, 1, n, 0, 0, 0, P_ONE, P_ONE)


def from_num_den(num, den) -> QRat:
    """Build from a numerator/denominator pair of Z[q] coefficient tuples."""
    return _canon(1, 1, 0, 0, 0, 0, p_trim(num), p_trim(den))


# bounded: the parser accepts |n| up to 10,000, and [n]q then holds a
# polynomial of degree about 2|n|
@lru_cache(maxsize=128)
def q_int(n: int) -> QRat:
    """The quantum integer [n]_q = (q^n - q^-n)/(q - q^-1)."""
    if n == 0:
        return QZERO
    return (q_pow(n) - q_pow(-n)) / QM


# The scalars of the paper's relations, built once here.
QM = Q - q_pow(-1)               # q - q^-1
Q2M = q_pow(2) - q_pow(-2)       # q^2 - q^-2
RHO = -(Q2M ** 2)                # the structure constant of the relations
G0 = -QM * q_int(2) ** 2         # the value of the degree-zero G symbols


# -- rendering --------------------------------------------------------------


def poly_text(f, shift: int = 0) -> str:
    """f * q^shift as text, highest power first."""
    if not f:
        return "0"
    parts = []
    for i in range(len(f) - 1, -1, -1):
        c = f[i]
        if c == 0:
            continue
        e = i + shift
        m = -c if c < 0 else c
        if e == 0:
            mono = str(m)
        elif m == 1:
            mono = "q" if e == 1 else f"q^{e}"
        else:
            mono = f"{m}*q" if e == 1 else f"{m}*q^{e}"
        if not parts:
            parts.append(mono if c > 0 else f"-{mono}")
        else:
            parts.append(f"+ {mono}" if c > 0 else f"- {mono}")
    return " ".join(parts)


# the text slot's member descriptor: `scalar_text` stores through it, so the
# guard in QRat.__setattr__ keeps refusing every assignment
_TEXT = QRat._text


def scalar_text(x: QRat) -> str:
    """Render x so that the CLI scalar grammar parses it back exactly.

    The text is read off the factored form: the powers of q become an
    exponent shift of `poly_text`, and the denominator is 1 or a power of q
    exactly when r = 1, V = 1 and b, c, d >= 0.  The first render stores
    the text in x's `_text` slot, and later renders of x return it.
    """
    try:
        return x._text
    except AttributeError:   # not rendered yet
        pass
    a, b, c, d = x.a, x.b, x.c, x.d
    num = poly_text(_expand(x.p, max(b, 0), max(c, 0), max(d, 0), x.u),
                    max(a, 0))
    if x.r == 1 and x.v == P_ONE and b >= 0 and c >= 0 and d >= 0:
        text = f"({num})" if a >= 0 else f"({num})*q^-{-a}"
    else:
        den = poly_text(_expand(x.r, max(-b, 0), max(-c, 0), max(-d, 0),
                                x.v), max(-a, 0))
        text = f"({num})/({den})"
    _TEXT.__set__(x, text)
    return text
