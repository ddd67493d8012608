"""Truncated Laurent series with free-algebra coefficients.

A series tracks, per variable, a support floor (nothing exists below it;
floors never go under -2) and a truncation order (coefficients above it
were discarded, so they are unknown).  Sums are exact on the
intersection of the known windows; a product of series known to orders
o1, o2 with floors f1, f2 is exact up to min(o1 + f2, o2 + f1).  All
window bookkeeping is automatic, so identities checked coefficientwise
are exact wherever a coefficient is reported at all.

A product, and a sum of products such as a bracket or an entry of a
matrix product, forms each output coefficient in one `qfield.lincomb`
call over the pairs of terms of its factors' coefficients (`_products`);
a scalar multiple is `NCPoly * c` on each coefficient, which looks its
products up in lincomb's product tables.
Exact division by (u - v) groups each exponent's contributions and sums
them once with `NCPoly.sum`; an exponent with a single contribution keeps
it as it is.  The constructor drops the coefficients that cancel.

Ten of the named combinations A..S are not written out (`_IMAGES`): B,
F, G, I, M, N, Q and S are the images of A, E, D, H, L, K, P and R under
the automorphism sigma, which swaps W- with W+ and G with Gt, and
E = -dagger(D) and L = -sigma(dagger(K)), where the antiautomorphism
dagger reverses words and swaps G with Gt.  Four of the six one-variable
rows of `check_gf_relations` are made from 3pp1a and 3pp2a the same way.
A check builds each name it needs once, in a lookup that lives for the
one call (`_appendix_a`).  The weighted sums of rules vi and vii, and
their left sides, are the dagger images of those of rules iv and v, and
are generated from them too.  What a weighted sum's coefficient must
equal is read off its rule's left side and rewritten by
`rewrite.apply_rule`, so no rule is restated here.
"""

from __future__ import annotations

from operator import add, gt
from typing import Dict, List, Tuple

from . import qfield, rewrite
from .qfield import QONE, QRat
from .report import Report
from .words import Family, Generator, NCPoly, dagger, sigma, sigma_dagger, wm

INF = 10 ** 9
_VAR_RANK = {"r": 0, "s": 1, "t": 2, "x": 3}
FLOOR_MIN = -2


class FloorUnderflowError(RuntimeError):
    """A coefficient fell below the -2 Laurent floor; internal error."""


class DivisibilityError(ValueError):
    """An exact division left a nonzero remainder."""


class WindowError(RuntimeError):
    """A coefficient lies outside its series' window; internal error."""


def _rank(v: str) -> int:
    try:
        return _VAR_RANK[v]
    except KeyError:
        raise ValueError(f"unknown indeterminate {v!r}") from None


class TruncSeries:
    __slots__ = ("vars", "order", "floor", "coeffs")

    def __init__(self, vars: Tuple[str, ...], order: Tuple[int, ...],
                 floor: Tuple[int, ...], coeffs: Dict[Tuple[int, ...], NCPoly]):
        """Keep the nonzero coefficients of coeffs.  Each variable's
        exponents are checked against its window at once, by their least
        and largest; a violation raises WindowError naming the first
        offending exponent in coeffs' order.  A zero coefficient is
        dropped wherever it lies."""
        if list(vars) != sorted(vars, key=_rank):
            raise ValueError("variables must be in canonical order")
        clean = {e: p for e, p in coeffs.items() if p.terms}
        for i, (f, o) in enumerate(zip(floor, order)):
            xs = [e[i] for e in clean]
            if xs and (min(xs) < f or max(xs) > o):
                bad = next(e for e in clean if any(
                    not lo <= x <= hi for x, lo, hi in zip(e, floor, order)))
                raise WindowError(f"exponent {bad} outside window")
        self.vars = tuple(vars)
        self.order = tuple(order)
        self.floor = tuple(floor)
        self.coeffs = clean

    # -- accessors ---------------------------------------------------

    def coeff(self, **exps) -> NCPoly:
        key = tuple(exps.pop(v, 0) for v in self.vars)
        if exps:
            raise ValueError(f"unknown variables {sorted(exps)}")
        return self.coeffs.get(key, NCPoly.zero())

    def is_zero(self) -> bool:
        return not self.coeffs

    def nonzero_exponents(self):
        return sorted(self.coeffs)

    # -- pointwise ----------------------------------------------------

    def map_coeffs(self, fn) -> "TruncSeries":
        return TruncSeries(self.vars, self.order, self.floor,
                           {e: fn(p) for e, p in self.coeffs.items()})

    def normal_form(self) -> "TruncSeries":
        return self.map_coeffs(rewrite.normal_form)

    # -- ring operations -----------------------------------------------

    def __add__(self, other):
        if not isinstance(other, TruncSeries):
            return NotImplemented
        return _pointwise(self, other, subtract=False)

    def __neg__(self):
        return TruncSeries(self.vars, self.order, self.floor,
                           {e: -p for e, p in self.coeffs.items()})

    def __sub__(self, other):
        if not isinstance(other, TruncSeries):
            return NotImplemented
        return _pointwise(self, other, subtract=True)

    def __mul__(self, other):
        if isinstance(other, TruncSeries):
            return _mul(self, other)
        if isinstance(other, (QRat, int)):
            return self.map_coeffs(lambda p: p * other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (QRat, int)):
            return self.__mul__(other)
        return NotImplemented

    def shift(self, var: str, k: int) -> "TruncSeries":
        """Multiply by var^k; exact, windows move with the exponents."""
        i = self.vars.index(var)
        floor = list(self.floor)
        order = list(self.order)
        floor[i] = floor[i] + k
        order[i] = min(order[i] + k, INF)
        coeffs = {}
        for e, p in self.coeffs.items():
            e2 = list(e)
            e2[i] += k
            if e2[i] < FLOOR_MIN:
                raise FloorUnderflowError(
                    f"exponent {e2[i]} of {var} underflows the Laurent floor")
            coeffs[tuple(e2)] = p
        floor[i] = max(floor[i], FLOOR_MIN)
        return TruncSeries(self.vars, tuple(order), tuple(floor), coeffs)

    def __repr__(self):
        names = ",".join(self.vars)
        return f"TruncSeries[{names}; order={self.order}, terms={len(self.coeffs)}]"


def _pointwise(x: TruncSeries, y: TruncSeries, subtract: bool) -> TruncSeries:
    """x + y, or x - y in one pass: an exponent that both hold takes p - q,
    and only one that y alone holds is negated."""
    vars = _vars(*x.vars, *y.vars)
    a, b = _promote(x, vars), _promote(y, vars)
    order = tuple(min(u, v) for u, v in zip(a.order, b.order))
    floor = tuple(min(u, v) for u, v in zip(a.floor, b.floor))
    coeffs = {}
    for e, p in a.coeffs.items():
        if all(u <= o for u, o in zip(e, order)):
            q = b.coeffs.get(e)
            coeffs[e] = p if q is None else (p - q if subtract else p + q)
    for e, q in b.coeffs.items():
        if e not in a.coeffs and all(u <= o for u, o in zip(e, order)):
            coeffs[e] = -q if subtract else q
    return TruncSeries(a.vars, order, floor, coeffs)


def _vars(*names: str) -> Tuple[str, ...]:
    """The union of the variables names, in canonical order."""
    return tuple(sorted(set(names), key=_rank))


def _promote(a: TruncSeries, vars: Tuple[str, ...]) -> TruncSeries:
    if a.vars == vars:
        return a
    pos = {v: i for i, v in enumerate(a.vars)}
    order = tuple(a.order[pos[v]] if v in pos else INF for v in vars)
    floor = tuple(a.floor[pos[v]] if v in pos else 0 for v in vars)
    coeffs = {}
    for e, p in a.coeffs.items():
        coeffs[tuple(e[pos[v]] if v in pos else 0 for v in vars)] = p
    return TruncSeries(vars, order, floor, coeffs)


def _mul(x: TruncSeries, y: TruncSeries) -> TruncSeries:
    return _products(((QONE, x, y),))


def _products(triples) -> TruncSeries:
    """The sum of c * x * y over the (c, x, y) triples, each c a nonzero
    scalar; each output coefficient is formed by one `qfield.lincomb` call
    over the pairs (c * c1, {u1 + w: v}) of the terms c1 * u1 of x's and
    v * w of y's coefficients, with no NCPoly per pair of coefficients.

    The window is that of the sum of the separate products: a product of
    x and y known to orders ox, oy with floors fx, fy is exact up to
    min(ox + fy, oy + fx), its floor is fx + fy clamped at FLOOR_MIN, and
    the sum is known up to the least order, from the least floor.  A
    product's exponent below FLOOR_MIN inside its own order raises
    FloorUnderflowError, even where the sum's window drops it.
    """
    vars = _vars(*(v for _, x, y in triples for v in x.vars + y.vars))
    parts = []
    for c, x, y in triples:
        x, y = _promote(x, vars), _promote(y, vars)
        own = tuple(min(ox + fy, oy + fx, INF) for ox, oy, fx, fy
                    in zip(x.order, y.order, x.floor, y.floor))
        floor = tuple(max(fx + fy, FLOOR_MIN) for fx, fy in zip(x.floor, y.floor))
        parts.append((c, x, y, own, floor))
    order = tuple(map(min, zip(*(own for *_, own, _ in parts))))
    floor = tuple(map(min, zip(*(f for *_, f in parts))))
    groups: Dict[Tuple[int, ...], list] = {}
    for c, x, y, own, _ in parts:
        left = [(e1, (p1 if c is QONE else p1 * c).terms)
                for e1, p1 in x.coeffs.items()]
        right = [(e2, p2.terms.items()) for e2, p2 in y.coeffs.items()]
        for e1, t1 in left:
            for e2, t2 in right:
                e = tuple(map(add, e1, e2))
                if min(e, default=0) < FLOOR_MIN and not any(map(gt, e, own)):
                    raise FloorUnderflowError(f"product exponent {e} underflows")
                if any(map(gt, e, order)):
                    continue
                groups.setdefault(e, []).extend(
                    (c1, {u + w: v for w, v in t2}) for u, c1 in t1.items())
    coeffs = {e: NCPoly.from_terms(qfield.lincomb(pairs))
              for e, pairs in groups.items()}
    return TruncSeries(vars, order, floor, coeffs)


def bracket(a: TruncSeries, b: TruncSeries) -> TruncSeries:
    """a*b - b*a, each coefficient formed in one pass by `_products`."""
    return _products(((QONE, a, b), (-QONE, b, a)))


def q_bracket(a: TruncSeries, b: TruncSeries) -> TruncSeries:
    """q a*b - q^-1 b*a, each coefficient formed in one pass by
    `_products`."""
    return _products(((qfield.Q, a, b), (-qfield.q_pow(-1), b, a)))


def constant(x, vars=()) -> TruncSeries:
    """A series equal to the constant x (NCPoly, QRat or int)."""
    if isinstance(x, (QRat, int)):
        x = NCPoly.scalar(qfield.of(x) if isinstance(x, int) else x)
    vars = tuple(sorted(vars, key=_rank))
    e = (0,) * len(vars)
    return TruncSeries(vars, (INF,) * len(vars), (0,) * len(vars), {e: x})


def zero(vars=()) -> TruncSeries:
    vars = tuple(sorted(vars, key=_rank))
    return TruncSeries(vars, (INF,) * len(vars), (0,) * len(vars), {})


def family_element(family: Family, n: int) -> NCPoly:
    """Coefficient n of the generating function of the given family: the
    letter of index n, except that G_n and Gt_n have index n - 1 and
    G_0 = Gt_0 is the scalar G0."""
    if family in (Family.G, Family.Gtilde):
        if n == 0:
            return NCPoly.scalar(qfield.G0)
        n -= 1
    return NCPoly.gen(Generator(family, n))


def gf(family: Family, var: str, order: int) -> TruncSeries:
    """Truncated generating function of one generator family."""
    _rank(var)   # an unknown variable is refused before any coefficient
    if order < 0:
        raise ValueError("order must be >= 0")
    coeffs = {(n,): family_element(family, n) for n in range(order + 1)}
    return TruncSeries((var,), (order,), (0,), coeffs)


# -- exact division ----------------------------------------------------------


def exact_divide(a: TruncSeries, divisor: str) -> TruncSeries:
    """Divide a by (u - v), given as the divisor "u-v".

    The remainder must vanish on the whole known window, else
    DivisibilityError; the quotient is returned on the half-order window
    where it is fully determined.
    """
    u, v = (x.strip() for x in divisor.split("-"))
    a = _promote(a, _vars(*a.vars, u, v))
    iu, iv = a.vars.index(u), a.vars.index(v)
    if a.floor[iu] < 0 or a.floor[iv] < 0:
        raise ValueError("difference division needs polynomial exponents")
    m = min(a.order[iu], a.order[iv])
    # divisible by (u - v) iff the restriction u = v vanishes
    diag: Dict[Tuple, List[NCPoly]] = {}
    for e, p in a.coeffs.items():
        d = e[iu] + e[iv]
        if d <= m:
            rest = tuple(x for i, x in enumerate(e) if i not in (iu, iv))
            diag.setdefault((d, rest), []).append(p)
    for key, ps in diag.items():
        if not NCPoly.sum(ps).is_zero():
            raise DivisibilityError(
                f"not divisible by ({u} - {v}); remainder at {key}")
    out_order = (m - 1) // 2
    if out_order < 0:
        raise DivisibilityError("window too small to divide")
    order = list(a.order)
    order[iu] = order[iv] = out_order
    groups: Dict[Tuple[int, ...], List[NCPoly]] = {}
    for e, p in a.coeffs.items():
        ei, ej = e[iu], e[iv]
        # quotient entry (i, j) receives a_{ei, ej} when ei = i+1+k, ej = j-k
        for k in range(ei):
            i = ei - 1 - k
            j = ej + k
            if i > out_order or j > out_order:
                continue
            e2 = list(e)
            e2[iu], e2[iv] = i, j
            groups.setdefault(tuple(e2), []).append(p)
    coeffs = {e: NCPoly.sum(ps) for e, ps in groups.items()}
    return TruncSeries(a.vars, tuple(order), a.floor, coeffs)


# -- the named two-variable combinations --------------------------------------


_ENV_FAMILIES = {"Wm": Family.Wminus, "Wp": Family.Wplus, "G": Family.G,
                 "Gt": Family.Gtilde}


def _gf_env(order: int):
    """The generating function of each family in s and in t, by key
    "<family>_<variable>": Wm_s, Wm_t, Wp_s, ..., Gt_t."""
    return {f"{key}_{var}": gf(family, var, order)
            for key, family in _ENV_FAMILIES.items() for var in "st"}


def appendixA_series(name: str, order: int = 4) -> TruncSeries:
    """One of the named A..S combinations of generating functions.

    Built in the free algebra; no quotient relations are applied.  An
    image is built from its source, which is built on the way; a check
    that needs several names looks them up in one `_appendix_a` instead,
    so that each is built once.
    """
    return _appendix_a(_gf_env(order))(name)


def _appendix_a(env):
    """A lookup of the named series over the generating functions of one
    `_gf_env`: each name is built on its first lookup and kept by the
    lookup alone, and an image is made from its source's kept series.
    The lookup holds no reference to itself, so its series are freed as
    soon as it is dropped, without waiting for the cyclic collector."""
    built: Dict[str, TruncSeries] = {}
    return lambda name: _named_series(env, built, name)


def _named_series(env, built: Dict[str, TruncSeries], name: str) -> TruncSeries:
    """The series `name` over env, from built or built into it."""
    ts = built.get(name)
    if ts is None:
        if name in _IMAGES:
            source, image = _IMAGES[name]
            ts = _named_series(env, built, source).map_coeffs(image)
        elif name in _APPENDIX_A_BUILDERS:
            ts = _APPENDIX_A_BUILDERS[name](env)
        else:
            raise ValueError(f"unknown series name {name!r}")
        built[name] = ts
    return ts


def _aA(env):
    return bracket(env["Wm_s"], env["Wm_t"])


def _aC(env):
    return bracket(env["Wm_s"], env["Wp_t"]) + bracket(env["Wp_s"], env["Wm_t"])


def _aD(env):
    return (bracket(env["Wm_s"], env["G_t"]).shift("s", 1)
            + bracket(env["G_s"], env["Wm_t"]).shift("t", 1))


def _aH(env):
    return bracket(env["G_s"], env["G_t"])


def _aJ(env):
    return bracket(env["Gt_s"], env["G_t"]) + bracket(env["G_s"], env["Gt_t"])


def _aK(env):
    return (q_bracket(env["Wm_s"], env["G_t"]) - q_bracket(env["Wm_t"], env["G_s"])
            - q_bracket(env["Wp_s"], env["G_t"]).shift("s", 1)
            + q_bracket(env["Wp_t"], env["G_s"]).shift("t", 1))


def _aP(env):
    rho_b = (qfield.RHO * qfield.q_int(2)).inverse()
    head = (bracket(env["G_s"], env["Gt_t"]).shift("t", -1)
            - bracket(env["G_t"], env["Gt_s"]).shift("s", -1)) * rho_b
    return (head
            - q_bracket(env["Wm_t"], env["Wp_s"])
            + q_bracket(env["Wm_s"], env["Wp_t"])
            - q_bracket(env["Wp_t"], env["Wm_s"]).shift("s", 1).shift("t", 1)
            + q_bracket(env["Wp_s"], env["Wm_t"]).shift("s", 1).shift("t", 1)
            - q_bracket(env["Wm_s"], env["Wm_t"]).shift("t", 1)
            + q_bracket(env["Wm_t"], env["Wm_s"]).shift("s", 1)
            - q_bracket(env["Wp_s"], env["Wp_t"]).shift("s", 1)
            + q_bracket(env["Wp_t"], env["Wp_s"]).shift("t", 1))


def _aR(env):
    c = qfield.q_int(2) * qfield.RHO
    return (q_bracket(env["G_s"], env["Gt_t"]) - q_bracket(env["G_t"], env["Gt_s"])
            - c * bracket(env["Wm_t"], env["Wp_s"]).shift("t", 1)
            + c * bracket(env["Wm_s"], env["Wp_t"]).shift("s", 1))


_APPENDIX_A_BUILDERS = {"A": _aA, "C": _aC, "D": _aD, "H": _aH, "J": _aJ,
                        "K": _aK, "P": _aP, "R": _aR}

# Each image, its source and the map applied to each coefficient:
# B = sigma(A), E = -dagger(D), F = sigma(E), L = -sigma(dagger(K)), ...
_IMAGES = {"B": ("A", sigma), "E": ("D", lambda p: -dagger(p)),
           "F": ("E", sigma), "G": ("D", sigma), "I": ("H", sigma),
           "L": ("K", lambda p: -sigma_dagger(p)), "M": ("L", sigma),
           "N": ("K", sigma), "Q": ("P", sigma), "S": ("R", sigma)}

APPENDIX_A_NAMES = tuple(sorted((*_APPENDIX_A_BUILDERS, *_IMAGES)))


# -- verification suites ------------------------------------------------------


def _vanishes(report: Report, name: str, ts: TruncSeries, what: str):
    """Add the check that ts is zero; a failure names ts's least nonzero
    exponent as "<what> at exponent e"."""
    if ts.is_zero():
        report.add(name, True)
    else:
        e = ts.nonzero_exponents()[0]
        report.add(name, False, f"{what} at exponent {e}")


def _vanishes_in_quotient(report: Report, name: str, ts: TruncSeries):
    _vanishes(report, name, ts.normal_form(), "nonzero coefficient")


def check_gf_relations(order: int) -> Report:
    """All generating-function relations vanish in the quotient algebra."""
    report = Report("gf-relations")
    rho = qfield.RHO
    inv2 = qfield.q_int(2).inverse()
    w0 = constant(NCPoly.gen(wm(0)), ("t",))
    env = _gf_env(order)
    gWm, gWp, gG, gGt = env["Wm_t"], env["Wp_t"], env["G_t"], env["Gt_t"]
    # 3pp1b = -sigma(3pp1a); 3pp2b, 3pp3a and 3pp3b are dagger,
    # sigma-dagger and sigma of 3pp2a
    r1 = bracket(w0, gWp) - ((gGt - gG) * inv2).shift("t", -1)
    r2 = q_bracket(w0, gG) - rho * gWm + rho * gWp.shift("t", 1)
    for label, ts in (("3pp1a", r1), ("3pp1b", -r1.map_coeffs(sigma)),
                      ("3pp2a", r2), ("3pp2b", r2.map_coeffs(dagger)),
                      ("3pp3a", r2.map_coeffs(sigma_dagger)),
                      ("3pp3b", r2.map_coeffs(sigma))):
        _vanishes_in_quotient(report, label, ts)
    sA = _appendix_a(env)
    two_var = {
        "3pp4a": "A", "3pp4b": "B", "3pp5": "C", "3pp6": "D", "3pp7": "E",
        "3pp8": "F", "3pp9": "G", "3pp10a": "H", "3pp10b": "I", "3pp11": "J",
    }
    for label, name in two_var.items():
        _vanishes_in_quotient(report, label, sA(name))
    for name in ("K", "L", "M", "N", "R", "S"):
        _vanishes_in_quotient(report, name, sA(name))
    for name in ("P", "Q"):
        cleared = sA(name).shift("s", 1).shift("t", 1)
        _vanishes_in_quotient(report, f"st*{name}", cleared)
    return report


def _smt(ts: TruncSeries) -> TruncSeries:
    """(s - t) times ts."""
    return ts.shift("s", 1) - ts.shift("t", 1)


# Rules vi and vii and the rules iv and v whose dagger images they are.
_DAGGER_SOURCE = {"vi": "iv", "vii": "v"}


def _ws_parts(env):
    """Yield each reduction rule with its left side and weighted sum as
    (lhs, plain, numerator-over-(s-t)), one rule at a time, so that a
    caller can drop each rule's parts before the next are built.  Those of
    rules vi and vii are the dagger images of the parts of rules iv and v,
    which are kept only until their images are made."""
    sources = {}
    for rule in ("ii", "iii", "iv", "v"):
        parts = _ws_part(rule, env)
        if rule in _DAGGER_SOURCE.values():
            sources[rule] = parts
        yield rule, parts
        del parts
    for rule, source in _DAGGER_SOURCE.items():
        lhs, plain, num = sources.pop(source)
        image = lhs.map_coeffs(dagger), plain, num.map_coeffs(dagger)
        del lhs, plain, num
        yield rule, image
        del image


# The two factors of the left side of rules ii, iii, iv and v.
_RULE_LHS = {"ii": ("Wp_s", "Wm_t"), "iii": ("Gt_s", "G_t"),
             "iv": ("Wp_t", "G_s"), "v": ("Wm_t", "G_s")}


def _ws_part(rule: str, env):
    """The left side and weighted sum of rule ii, iii, iv or v as (lhs,
    plain, numerator-over-(s-t))."""
    left, right = _RULE_LHS[rule]
    lhs = env[left] * env[right]
    q = qfield.q_pow
    if rule == "ii":
        plain = env["Wm_t"] * env["Wp_s"]
        num = ((env["G_t"] * env["Gt_s"] - env["G_s"] * env["Gt_t"])
               * rewrite.E_II)
        return lhs, plain, num
    if rule == "iii":
        c = rewrite.C_III
        plain = (env["G_t"] * env["Gt_s"]
                 + ((env["Wp_s"] * env["Wp_t"]) - (env["Wm_s"] * env["Wm_t"]))
                 .shift("s", 1).shift("t", 1) * c)
        x = env["Wm_s"] * env["Wp_t"] - env["Wm_t"] * env["Wp_s"]
        num = (x.shift("s", 2).shift("t", 2) - x.shift("s", 1).shift("t", 1)) * c
        return lhs, plain, num
    t1 = env["G_t"] * env["Wm_s"]
    t2 = env["G_s"] * env["Wm_t"]
    t3 = env["G_t"] * env["Wp_s"]
    t4 = env["G_s"] * env["Wp_t"]
    if rule == "iv":
        # coefficient names a', A', A, a on the four ordered products
        c1, c2, c3 = rewrite.C_IV, -rewrite.C_IV, -rewrite.C_IV
        num = (t1.shift("s", 2) * c1
               + t2.shift("s", 1).shift("t", 1) * c2
               + t3.shift("s", 1) * c3
               + t4.shift("s", 1) * (q(2)) - t4.shift("t", 1))
        return lhs, zero(("s", "t")), num
    c1 = rewrite.C_V   # rule v
    num = (t1.shift("s", 1) * c1
           + t2.shift("s", 1) * q(-2) - t2.shift("t", 1)
           - t3.shift("s", 2) * c1
           + t4.shift("s", 1).shift("t", 1) * c1)
    return lhs, zero(("s", "t")), num


def check_prop41_decompositions(order: int) -> Report:
    """The six weighted-sum proof identities, in the free algebra, plus the
    coefficient-extraction consistency of the GF rules with the index rules."""
    report = Report("prop41")
    env = _gf_env(order)
    rho = qfield.RHO
    q2 = qfield.q_int(2)  # q + q^-1
    qq = qfield.q_pow

    sA = _appendix_a(env)
    for rule, (lhs, plain, num) in _ws_parts(env):
        lhs_cleared = _smt(lhs - plain) - num
        if rule == "ii":
            lhs_cleared = lhs_cleared * (q2 * rho)
            rhs = (sA("C").shift("s", 1) * (q2 * rho)
                   + sA("J") * qq(-1) - sA("R"))
        elif rule == "iii":
            stC = sA("C").shift("s", 1).shift("t", 1)
            # the stated P-term absorbs (qs + q^-1 t)A + (q^-1 s + qt)B,
            # both zero in the quotient; the exact identity carries them
            p_eff = (sA("P")
                     + sA("A").shift("s", 1) * qq(1)
                     + sA("A").shift("t", 1) * qq(-1)
                     + sA("B").shift("s", 1) * qq(-1)
                     + sA("B").shift("t", 1) * qq(1))
            rhs = (stC.shift("s", 1).shift("t", 1) * (q2 * rho * qq(1))
                   + stC * (q2 * rho * qq(-1))
                   + sA("J").shift("s", 1)
                   - p_eff.shift("s", 1).shift("t", 1) * (q2 * rho))
        elif rule == "iv":
            rhs = sA("F") - sA("D").shift("s", 1) - sA("L").shift("s", 1) * qq(1)
        elif rule == "v":
            rhs = sA("D") - sA("F").shift("s", 1) - sA("K").shift("s", 1) * qq(-1)
        elif rule == "vi":
            rhs = sA("E").shift("s", 1) - sA("G") + sA("N").shift("s", 1) * qq(1)
        else:
            rhs = sA("G").shift("s", 1) - sA("E") + sA("M").shift("s", 1) * qq(-1)
        _vanishes(report, f"decomposition-{rule}", lhs_cleared - rhs,
                  "free-algebra mismatch")
        del lhs, plain, num, lhs_cleared, rhs   # before the next rule's parts

    bound = min(3, max(order - 1, 0))
    for rule, (lhs, plain, num) in _ws_parts(_gf_env(2 * (bound + 1) + 1)):
        ws = plain + exact_divide(num, "s-t")
        pairs = ((es, et) for es in range(bound + (1 if rule == "ii" else 2))
                 for et in range(bound + 1))
        bad = next(((es, et) for es, et in pairs if ws.coeff(s=es, t=et)
                    != _rewritten_once(lhs.coeff(s=es, t=et))), None)
        report.add(f"extraction-{rule}", bad is None,
                   "" if bad is None else f"mismatch at s^{bad[0]} t^{bad[1]}")
    return report


def _rewritten_once(p: NCPoly) -> NCPoly:
    """What a weighted sum's coefficient must equal, given the same
    coefficient p of its rule's left side: p rewritten once by its rule
    when it is a reducible two-letter word, and otherwise (a product with
    the scalar G0) p as it is."""
    if len(p.terms) == 1:
        (w, c), = p.terms.items()
        if len(w) == 2 and w[0] > w[1]:
            return rewrite.apply_rule(*w) * c
    return p
