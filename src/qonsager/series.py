"""Truncated Laurent series with free-algebra coefficients.

A series tracks, per variable, a support floor (nothing exists below it;
floors never go under -2) and a truncation order (coefficients above it
were discarded, so they are unknown).  Sums are exact on the
intersection of the known windows; a product of series known to orders
o1, o2 with floors f1, f2 is exact up to min(o1 + f2, o2 + f1).  All
window bookkeeping is automatic, so identities checked coefficientwise
are exact wherever a coefficient is reported at all.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from . import qfield, rewrite
from .qfield import QRat
from .words import Family, NCPoly, g_, gt_, wm, wp

INF = 10 ** 9
_VAR_RANK = {"r": 0, "s": 1, "t": 2, "x": 3}
FLOOR_MIN = -2


class FloorUnderflowError(RuntimeError):
    """A coefficient fell below the -2 Laurent floor; internal error."""


class DivisibilityError(ValueError):
    """An exact division left a nonzero remainder."""


def _rank(v: str) -> int:
    try:
        return _VAR_RANK[v]
    except KeyError:
        raise ValueError(f"unknown indeterminate {v!r}") from None


class TruncSeries:
    __slots__ = ("vars", "order", "floor", "coeffs")

    def __init__(self, vars: Tuple[str, ...], order: Tuple[int, ...],
                 floor: Tuple[int, ...], coeffs: Dict[Tuple[int, ...], NCPoly]):
        if list(vars) != sorted(vars, key=_rank):
            raise ValueError("variables must be in canonical order")
        clean = {}
        for e, p in coeffs.items():
            if p.is_zero():
                continue
            for x, f, o in zip(e, floor, order):
                if x < f or x > o:
                    raise ValueError(f"exponent {e} outside window")
            clean[e] = p
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
        a, b = _align(self, other)
        order = tuple(min(x, y) for x, y in zip(a.order, b.order))
        floor = tuple(min(x, y) for x, y in zip(a.floor, b.floor))
        coeffs = dict(a.coeffs)
        for e, p in b.coeffs.items():
            s = coeffs.get(e)
            s = p if s is None else s + p
            if s.is_zero():
                coeffs.pop(e, None)
            else:
                coeffs[e] = s
        coeffs = {e: p for e, p in coeffs.items()
                  if all(x <= o for x, o in zip(e, order))}
        return TruncSeries(a.vars, order, floor, coeffs)

    def __neg__(self):
        return TruncSeries(self.vars, self.order, self.floor,
                           {e: -p for e, p in self.coeffs.items()})

    def __sub__(self, other):
        if not isinstance(other, TruncSeries):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, TruncSeries):
            return _mul(self, other)
        if isinstance(other, (QRat, int)):
            c = qfield.of(other) if isinstance(other, int) else other
            if c.is_zero():
                return TruncSeries(self.vars, self.order, self.floor, {})
            return self.map_coeffs(lambda p: p * c)
        if isinstance(other, NCPoly):
            return _mul(self, constant(other, self.vars))
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (QRat, int)):
            return self.__mul__(other)
        if isinstance(other, NCPoly):
            return _mul(constant(other, self.vars), self)
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


def _align(a: TruncSeries, b: TruncSeries):
    if a.vars == b.vars:
        return a, b
    vars = tuple(sorted(set(a.vars) | set(b.vars), key=_rank))
    return _promote(a, vars), _promote(b, vars)


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
    a, b = _align(x, y)
    order = tuple(min(oa + fb, ob + fa, INF)
                  for oa, ob, fa, fb in zip(a.order, b.order, a.floor, b.floor))
    floor = []
    for fa, fb in zip(a.floor, b.floor):
        floor.append(max(fa + fb, FLOOR_MIN))
    coeffs: Dict[Tuple[int, ...], NCPoly] = {}
    for e1, p1 in a.coeffs.items():
        for e2, p2 in b.coeffs.items():
            e = tuple(i + j for i, j in zip(e1, e2))
            if any(x > o for x, o in zip(e, order)):
                continue
            if any(x < FLOOR_MIN for x in e):
                raise FloorUnderflowError(f"product exponent {e} underflows")
            p = p1 * p2
            s = coeffs.get(e)
            s = p if s is None else s + p
            if s.is_zero():
                coeffs.pop(e, None)
            else:
                coeffs[e] = s
    return TruncSeries(a.vars, order, tuple(floor), coeffs)


def series_arith(a: TruncSeries, b: TruncSeries, op: str) -> TruncSeries:
    if op == "add":
        return a + b
    if op == "sub":
        return a - b
    if op == "mul":
        return a * b
    if op == "commutator":
        return bracket(a, b)
    if op == "q_commutator":
        return q_bracket(a, b)
    raise ValueError(f"unknown op {op!r}")


def bracket(a: TruncSeries, b: TruncSeries) -> TruncSeries:
    return a * b - b * a


def q_bracket(a: TruncSeries, b: TruncSeries, power: int = 1) -> TruncSeries:
    return qfield.q_pow(power) * (a * b) - qfield.q_pow(-power) * (b * a)


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
    """Coefficient n of the generating function of the given family."""
    if family == Family.Wminus:
        return NCPoly.gen(wm(n))
    if family == Family.Wplus:
        return NCPoly.gen(wp(n + 1))
    if family == Family.G:
        return NCPoly.scalar(qfield.g0_const()) if n == 0 else NCPoly.gen(g_(n))
    if family == Family.Gtilde:
        return NCPoly.scalar(qfield.g0_const()) if n == 0 else NCPoly.gen(gt_(n))
    raise ValueError(f"unknown family {family!r}")


def gf(family: Family, var: str, order: int) -> TruncSeries:
    """Truncated generating function of one generator family."""
    if order < 0:
        raise ValueError("order must be >= 0")
    coeffs = {(n,): family_element(family, n) for n in range(order + 1)}
    return TruncSeries((var,), (order,), (0,), coeffs)


# -- exact division ----------------------------------------------------------


def exact_divide(a: TruncSeries, divisor) -> TruncSeries:
    """Divide a by (u - v) (divisor "u-v") or by a scalar series t*unit.

    The difference path checks that the remainder vanishes on the whole
    known window and raises DivisibilityError otherwise; the quotient is
    returned on the half-order window where it is fully determined.
    """
    if isinstance(divisor, str):
        u, v = divisor.split("-")
        return _divide_by_difference(a, u.strip(), v.strip())
    if isinstance(divisor, TruncSeries):
        return _divide_by_scalar_series(a, divisor)
    raise TypeError("divisor must be 'u-v' or a scalar TruncSeries")


def _divide_by_difference(a: TruncSeries, u: str, v: str) -> TruncSeries:
    if u not in a.vars or v not in a.vars:
        a = _promote(a, tuple(sorted(set(a.vars) | {u, v}, key=_rank)))
    iu, iv = a.vars.index(u), a.vars.index(v)
    if a.floor[iu] < 0 or a.floor[iv] < 0:
        raise ValueError("difference division needs polynomial exponents")
    m = min(a.order[iu], a.order[iv])
    # divisible by (u - v) iff the restriction u = v vanishes
    diag: Dict[Tuple, NCPoly] = {}
    for e, p in a.coeffs.items():
        d = e[iu] + e[iv]
        if d > m:
            continue
        rest = tuple(x for i, x in enumerate(e) if i not in (iu, iv))
        key = (d, rest)
        s = diag.get(key)
        s = p if s is None else s + p
        diag[key] = s
    for key, p in diag.items():
        if not p.is_zero():
            raise DivisibilityError(
                f"not divisible by ({u} - {v}); remainder at {key}")
    out_order = (m - 1) // 2
    if out_order < 0:
        raise DivisibilityError("window too small to divide")
    order = list(a.order)
    order[iu] = order[iv] = out_order
    coeffs: Dict[Tuple[int, ...], NCPoly] = {}
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
            key = tuple(e2)
            s = coeffs.get(key)
            s = p if s is None else s + p
            if s.is_zero():
                coeffs.pop(key, None)
            else:
                coeffs[key] = s
    return TruncSeries(a.vars, tuple(order), a.floor, coeffs)


def _divide_by_scalar_series(a: TruncSeries, d: TruncSeries) -> TruncSeries:
    if len(d.vars) != 1:
        raise ValueError("series divisor must be univariate")
    var = d.vars[0]
    exps = d.nonzero_exponents()
    if not exps:
        raise ZeroDivisionError("division by the zero series")
    val = exps[0][0]
    length = d.order[0] - val
    if length > 10 ** 6:
        ia = a.vars.index(var) if var in a.vars else None
        span = 4 if ia is None or a.order[ia] > 10 ** 6 else a.order[ia] - a.floor[ia]
        length = max(span, 0) + 4
    unit = [d.coeffs.get((n + val,), NCPoly.zero()).scalar_part()
            for n in range(length + 1)]
    for e in exps:
        if not d.coeffs[e].is_scalar():
            raise ValueError("series divisor must have scalar coefficients")
    if unit[0].is_zero():
        raise ZeroDivisionError("divisor unit part has zero constant term")
    inv = [unit[0].inverse()]
    for n in range(1, length + 1):
        s = qfield.QZERO
        for j in range(1, n + 1):
            s = s + unit[j] * inv[n - j]
        inv.append(-(inv[0] * s))
    inv_ts = TruncSeries((var,), (length,), (0,),
                         {(n,): NCPoly.scalar(c) for n, c in enumerate(inv)})
    shifted = a.shift(var, -val) if val else a
    return _mul(shifted, inv_ts)


# -- the named two-variable combinations --------------------------------------


def appendixA_series(name: str, s: str = "s", t: str = "t",
                     order: int = 4) -> TruncSeries:
    """One of the named A..S combinations of generating functions.

    Built in the free algebra; no quotient relations are applied.
    """
    builders = _APPENDIX_A_BUILDERS
    if name not in builders:
        raise ValueError(f"unknown series name {name!r}")
    Wm_s, Wm_t = gf(Family.Wminus, s, order), gf(Family.Wminus, t, order)
    Wp_s, Wp_t = gf(Family.Wplus, s, order), gf(Family.Wplus, t, order)
    G_s, G_t = gf(Family.G, s, order), gf(Family.G, t, order)
    Gt_s, Gt_t = gf(Family.Gtilde, s, order), gf(Family.Gtilde, t, order)
    env = {
        "Wm_s": Wm_s, "Wm_t": Wm_t, "Wp_s": Wp_s, "Wp_t": Wp_t,
        "G_s": G_s, "G_t": G_t, "Gt_s": Gt_s, "Gt_t": Gt_t,
        "s": s, "t": t,
    }
    return builders[name](env)


def _aA(env):
    return bracket(env["Wm_s"], env["Wm_t"])


def _aB(env):
    return bracket(env["Wp_s"], env["Wp_t"])


def _aC(env):
    return bracket(env["Wm_s"], env["Wp_t"]) + bracket(env["Wp_s"], env["Wm_t"])


def _aD(env):
    return (bracket(env["Wm_s"], env["G_t"]).shift(env["s"], 1)
            + bracket(env["G_s"], env["Wm_t"]).shift(env["t"], 1))


def _aE(env):
    return (bracket(env["Wm_s"], env["Gt_t"]).shift(env["s"], 1)
            + bracket(env["Gt_s"], env["Wm_t"]).shift(env["t"], 1))


def _aF(env):
    return (bracket(env["Wp_s"], env["G_t"]).shift(env["s"], 1)
            + bracket(env["G_s"], env["Wp_t"]).shift(env["t"], 1))


def _aG(env):
    return (bracket(env["Wp_s"], env["Gt_t"]).shift(env["s"], 1)
            + bracket(env["Gt_s"], env["Wp_t"]).shift(env["t"], 1))


def _aH(env):
    return bracket(env["G_s"], env["G_t"])


def _aI(env):
    return bracket(env["Gt_s"], env["Gt_t"])


def _aJ(env):
    return bracket(env["Gt_s"], env["G_t"]) + bracket(env["G_s"], env["Gt_t"])


def _aK(env):
    return (q_bracket(env["Wm_s"], env["G_t"]) - q_bracket(env["Wm_t"], env["G_s"])
            - q_bracket(env["Wp_s"], env["G_t"]).shift(env["s"], 1)
            + q_bracket(env["Wp_t"], env["G_s"]).shift(env["t"], 1))


def _aL(env):
    return (q_bracket(env["G_s"], env["Wp_t"]) - q_bracket(env["G_t"], env["Wp_s"])
            - q_bracket(env["G_s"], env["Wm_t"]).shift(env["t"], 1)
            + q_bracket(env["G_t"], env["Wm_s"]).shift(env["s"], 1))


def _aM(env):
    return (q_bracket(env["Gt_s"], env["Wm_t"]) - q_bracket(env["Gt_t"], env["Wm_s"])
            - q_bracket(env["Gt_s"], env["Wp_t"]).shift(env["t"], 1)
            + q_bracket(env["Gt_t"], env["Wp_s"]).shift(env["s"], 1))


def _aN(env):
    return (q_bracket(env["Wp_s"], env["Gt_t"]) - q_bracket(env["Wp_t"], env["Gt_s"])
            - q_bracket(env["Wm_s"], env["Gt_t"]).shift(env["s"], 1)
            + q_bracket(env["Wm_t"], env["Gt_s"]).shift(env["t"], 1))


def _aP(env):
    s, t = env["s"], env["t"]
    rho_b = (qfield.rho_const() * qfield.q_int(2)).inverse()
    head = (bracket(env["G_s"], env["Gt_t"]).shift(t, -1)
            - bracket(env["G_t"], env["Gt_s"]).shift(s, -1)) * rho_b
    return (head
            - q_bracket(env["Wm_t"], env["Wp_s"])
            + q_bracket(env["Wm_s"], env["Wp_t"])
            - q_bracket(env["Wp_t"], env["Wm_s"]).shift(s, 1).shift(t, 1)
            + q_bracket(env["Wp_s"], env["Wm_t"]).shift(s, 1).shift(t, 1)
            - q_bracket(env["Wm_s"], env["Wm_t"]).shift(t, 1)
            + q_bracket(env["Wm_t"], env["Wm_s"]).shift(s, 1)
            - q_bracket(env["Wp_s"], env["Wp_t"]).shift(s, 1)
            + q_bracket(env["Wp_t"], env["Wp_s"]).shift(t, 1))


def _aQ(env):
    s, t = env["s"], env["t"]
    rho_b = (qfield.rho_const() * qfield.q_int(2)).inverse()
    head = (bracket(env["Gt_s"], env["G_t"]).shift(t, -1)
            - bracket(env["Gt_t"], env["G_s"]).shift(s, -1)) * rho_b
    return (head
            - q_bracket(env["Wp_t"], env["Wm_s"])
            + q_bracket(env["Wp_s"], env["Wm_t"])
            - q_bracket(env["Wm_t"], env["Wp_s"]).shift(s, 1).shift(t, 1)
            + q_bracket(env["Wm_s"], env["Wp_t"]).shift(s, 1).shift(t, 1)
            - q_bracket(env["Wp_s"], env["Wp_t"]).shift(t, 1)
            + q_bracket(env["Wp_t"], env["Wp_s"]).shift(s, 1)
            - q_bracket(env["Wm_s"], env["Wm_t"]).shift(s, 1)
            + q_bracket(env["Wm_t"], env["Wm_s"]).shift(t, 1))


def _aR(env):
    s, t = env["s"], env["t"]
    c = qfield.q_int(2) * qfield.rho_const()
    return (q_bracket(env["G_s"], env["Gt_t"]) - q_bracket(env["G_t"], env["Gt_s"])
            - c * bracket(env["Wm_t"], env["Wp_s"]).shift(t, 1)
            + c * bracket(env["Wm_s"], env["Wp_t"]).shift(s, 1))


def _aS(env):
    s, t = env["s"], env["t"]
    c = qfield.q_int(2) * qfield.rho_const()
    return (q_bracket(env["Gt_s"], env["G_t"]) - q_bracket(env["Gt_t"], env["G_s"])
            - c * bracket(env["Wp_t"], env["Wm_s"]).shift(t, 1)
            + c * bracket(env["Wp_s"], env["Wm_t"]).shift(s, 1))


_APPENDIX_A_BUILDERS = {
    "A": _aA, "B": _aB, "C": _aC, "D": _aD, "E": _aE, "F": _aF, "G": _aG,
    "H": _aH, "I": _aI, "J": _aJ, "K": _aK, "L": _aL, "M": _aM, "N": _aN,
    "P": _aP, "Q": _aQ, "R": _aR, "S": _aS,
}

APPENDIX_A_NAMES = tuple(_APPENDIX_A_BUILDERS)


# -- verification suites ------------------------------------------------------


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


@dataclass
class Report:
    suite: str
    results: List[CheckResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        """True when at least one check ran and every check passed."""
        return bool(self.results) and all(r.passed for r in self.results)

    def add(self, name: str, passed: bool, detail: str = ""):
        self.results.append(CheckResult(name, passed, detail))

    def failures(self) -> List[CheckResult]:
        return [r for r in self.results if not r.passed]


def _vanishes_in_quotient(report: Report, name: str, ts: TruncSeries):
    nf = ts.normal_form()
    if nf.is_zero():
        report.add(name, True)
    else:
        e = nf.nonzero_exponents()[0]
        report.add(name, False, f"nonzero coefficient at exponent {e}")


def _vanishes_free(report: Report, name: str, ts: TruncSeries):
    if ts.is_zero():
        report.add(name, True)
    else:
        e = ts.nonzero_exponents()[0]
        report.add(name, False, f"free-algebra mismatch at exponent {e}")


def check_gf_relations(order: int) -> Report:
    """All generating-function relations vanish in the quotient algebra."""
    report = Report("gf-relations")
    rho = qfield.rho_const()
    inv2 = qfield.q_int(2).inverse()
    w0 = constant(NCPoly.gen(wm(0)), ("t",))
    w1 = constant(NCPoly.gen(wp(1)), ("t",))
    gWm = gf(Family.Wminus, "t", order)
    gWp = gf(Family.Wplus, "t", order)
    gG = gf(Family.G, "t", order)
    gGt = gf(Family.Gtilde, "t", order)
    rhs1 = ((gGt - gG) * inv2).shift("t", -1)
    _vanishes_in_quotient(report, "3pp1a", bracket(w0, gWp) - rhs1)
    _vanishes_in_quotient(report, "3pp1b", bracket(gWm, w1) - rhs1)
    rhs2 = rho * gWm - rho * gWp.shift("t", 1)
    _vanishes_in_quotient(report, "3pp2a", q_bracket(w0, gG) - rhs2)
    _vanishes_in_quotient(report, "3pp2b", q_bracket(gGt, w0) - rhs2)
    rhs3 = rho * gWp - rho * gWm.shift("t", 1)
    _vanishes_in_quotient(report, "3pp3a", q_bracket(gG, w1) - rhs3)
    _vanishes_in_quotient(report, "3pp3b", q_bracket(w1, gGt) - rhs3)
    two_var = {
        "3pp4a": "A", "3pp4b": "B", "3pp5": "C", "3pp6": "D", "3pp7": "E",
        "3pp8": "F", "3pp9": "G", "3pp10a": "H", "3pp10b": "I", "3pp11": "J",
    }
    for label, name in two_var.items():
        _vanishes_in_quotient(report, label, appendixA_series(name, order=order))
    for name in ("K", "L", "M", "N", "R", "S"):
        _vanishes_in_quotient(report, name, appendixA_series(name, order=order))
    for name in ("P", "Q"):
        cleared = appendixA_series(name, order=order).shift("s", 1).shift("t", 1)
        _vanishes_in_quotient(report, f"st*{name}", cleared)
    return report


def _gf_env(order: int):
    return {
        "Wm_s": gf(Family.Wminus, "s", order),
        "Wm_t": gf(Family.Wminus, "t", order),
        "Wp_s": gf(Family.Wplus, "s", order),
        "Wp_t": gf(Family.Wplus, "t", order),
        "G_s": gf(Family.G, "s", order),
        "G_t": gf(Family.G, "t", order),
        "Gt_s": gf(Family.Gtilde, "s", order),
        "Gt_t": gf(Family.Gtilde, "t", order),
    }


def _smt(ts: TruncSeries) -> TruncSeries:
    """(s - t) times ts."""
    return ts.shift("s", 1) - ts.shift("t", 1)


def _ws_parts(rule: str, env):
    """The weighted sum of a reduction rule as (plain, numerator-over-(s-t))."""
    q = qfield.q_pow
    qm = qfield.Q - q(-1)
    Q2 = q(2) - q(-2)
    if rule == "ii":
        ec = (Q2 * qfield.q_int(2) ** 2).inverse()
        plain = env["Wm_t"] * env["Wp_s"]
        num = (env["G_t"] * env["Gt_s"] - env["G_s"] * env["Gt_t"]) * ec
        return plain, num
    if rule == "iii":
        c = Q2 ** 3
        plain = (env["G_t"] * env["Gt_s"]
                 + ((env["Wp_s"] * env["Wp_t"]) - (env["Wm_s"] * env["Wm_t"]))
                 .shift("s", 1).shift("t", 1) * c)
        x = env["Wm_s"] * env["Wp_t"] - env["Wm_t"] * env["Wp_s"]
        num = (x.shift("s", 2).shift("t", 2) - x.shift("s", 1).shift("t", 1)) * c
        return plain, num
    if rule in ("iv", "vi"):
        # coefficient names a', A', A, a on the four ordered products
        c1, c2, c3 = qfield.Q * qm, -(qfield.Q * qm), -(qfield.Q * qm)
        if rule == "iv":
            t1 = env["G_t"] * env["Wm_s"]
            t2 = env["G_s"] * env["Wm_t"]
            t3 = env["G_t"] * env["Wp_s"]
            t4 = env["G_s"] * env["Wp_t"]
        else:
            t1 = env["Wm_s"] * env["Gt_t"]
            t2 = env["Wm_t"] * env["Gt_s"]
            t3 = env["Wp_s"] * env["Gt_t"]
            t4 = env["Wp_t"] * env["Gt_s"]
        num = (t1.shift("s", 2) * c1
               + t2.shift("s", 1).shift("t", 1) * c2
               + t3.shift("s", 1) * c3
               + t4.shift("s", 1) * (q(2)) - t4.shift("t", 1))
        return zero(("s", "t")), num
    if rule in ("v", "vii"):
        c1 = q(-1) * qm
        if rule == "v":
            t1 = env["G_t"] * env["Wm_s"]
            t2 = env["G_s"] * env["Wm_t"]
            t3 = env["G_t"] * env["Wp_s"]
            t4 = env["G_s"] * env["Wp_t"]
        else:
            t1 = env["Wm_s"] * env["Gt_t"]
            t2 = env["Wm_t"] * env["Gt_s"]
            t3 = env["Wp_s"] * env["Gt_t"]
            t4 = env["Wp_t"] * env["Gt_s"]
        num = (t1.shift("s", 1) * c1
               + t2.shift("s", 1) * q(-2) - t2.shift("t", 1)
               - t3.shift("s", 2) * c1
               + t4.shift("s", 1).shift("t", 1) * c1)
        return zero(("s", "t")), num
    raise ValueError(f"unknown rule {rule!r}")


def _rule_lhs(rule: str, env) -> TruncSeries:
    return {
        "ii": lambda: env["Wp_s"] * env["Wm_t"],
        "iii": lambda: env["Gt_s"] * env["G_t"],
        "iv": lambda: env["Wp_t"] * env["G_s"],
        "v": lambda: env["Wm_t"] * env["G_s"],
        "vi": lambda: env["Gt_s"] * env["Wp_t"],
        "vii": lambda: env["Gt_s"] * env["Wm_t"],
    }[rule]()


def check_prop41_decompositions(order: int) -> Report:
    """The six weighted-sum proof identities, in the free algebra, plus the
    coefficient-extraction consistency of the GF rules with the index rules."""
    from . import rewrite as rw
    report = Report("prop41")
    env = _gf_env(order)
    rho = qfield.rho_const()
    q2 = qfield.q_int(2)  # q + q^-1
    qq = qfield.q_pow

    def sA(name):
        return appendixA_series(name, order=order)

    for rule in ("ii", "iii", "iv", "v", "vi", "vii"):
        plain, num = _ws_parts(rule, env)
        lhs_cleared = _smt(_rule_lhs(rule, env) - plain) - num
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
        _vanishes_free(report, f"decomposition-{rule}", lhs_cleared - rhs)

    bound = min(3, max(order - 1, 0))
    big = _gf_env(2 * (bound + 1) + 1)
    for rule in ("ii", "iii", "iv", "v", "vi", "vii"):
        plain, num = _ws_parts(rule, big)
        ws = plain + exact_divide(num, "s-t")
        ok = True
        detail = ""
        for es in range(bound + 2 if rule in ("iii", "iv", "v", "vi", "vii") else bound + 1):
            for et in range(bound + 1):
                got = ws.coeff(s=es, t=et)
                expected = _expected_pair_poly(rule, es, et, rw)
                if expected is None:
                    continue
                if got != expected:
                    ok = False
                    detail = f"mismatch at s^{es} t^{et}"
                    break
            if not ok:
                break
        report.add(f"extraction-{rule}", ok, detail)
    return report


def _expected_pair_poly(rule: str, es: int, et: int, rw):
    """What the coefficient of s^es t^et of a weighted sum must equal."""
    from .words import symbol_from_subscript
    if rule == "ii":
        a, b = wp(es + 1), wm(et)
        return rw.apply_rule(a, b)
    if rule == "iii":
        if es >= 1 and et >= 1:
            return rw.apply_rule(gt_(es), g_(et))
        return (NCPoly.symbol(symbol_from_subscript("Gt", es))
                * NCPoly.symbol(symbol_from_subscript("G", et)))
    if rule == "iv":
        if es >= 1:
            return rw.apply_rule(wp(et + 1), g_(es))
        return NCPoly.gen(wp(et + 1)) * qfield.g0_const()
    if rule == "v":
        if es >= 1:
            return rw.apply_rule(wm(et), g_(es))
        return NCPoly.gen(wm(et)) * qfield.g0_const()
    if rule == "vi":
        if es >= 1:
            return rw.apply_rule(gt_(es), wp(et + 1))
        return NCPoly.gen(wp(et + 1)) * qfield.g0_const()
    if rule == "vii":
        if es >= 1:
            return rw.apply_rule(gt_(es), wm(et))
        return NCPoly.gen(wm(et)) * qfield.g0_const()
    raise ValueError(rule)
