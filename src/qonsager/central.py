"""Central elements and the machinery around them.

The series Z(t) is assembled from the alternating-binomial resummations
of the generating functions at the two q-shifted arguments; its
coefficients, divided by powers of [2]_q, are the central elements.
They come out of two independent routes (series extraction and the
closed five-sum formula) which must agree, are fixed by both symmetry
maps, commute with every generator, and drive the recursion that
recovers all alternating generators from the two degree-one ones.
"""

from __future__ import annotations

from functools import partial
from math import comb
from typing import Callable, Dict, List

from . import qfield, rewrite, series
from .qfield import QRat
from .series import Report, TruncSeries
from .words import (Family, Generator, NCPoly, commutator, dagger, g_, gt_,
                    q_commutator, sigma, wm, wp)

# 1/(q^2 - q^-2)^2, the factor of the G terms of Z(t) and of the recursion
INV_Q2M_SQ = (qfield.Q2M ** 2).inverse()


def down_transform(a: Callable[[int], NCPoly], n: int) -> NCPoly:
    """The resummation with binomials C(n-1-l, l): ddown of the shifted a."""
    return ddown_transform(lambda k: a(k + 1), n - 1) if n else a(0)


def ddown_transform(a: Callable[[int], NCPoly], n: int) -> NCPoly:
    """The companion resummation with binomials C(n-l, l)."""
    inv2sq = qfield.q_int(2) ** -2
    return NCPoly.sum(
        a(n - 2 * l) * (qfield.of((-1) ** l * comb(n - l, l)) * inv2sq ** l)
        for l in range(n // 2 + 1))


def w_ddown(m: int, elem=series.family_element) -> NCPoly:
    """The double-down W element with signed subscript m; elem(family, k)
    supplies the letter polynomials."""
    if m <= 0:
        return ddown_transform(partial(elem, Family.Wminus), -m)
    return ddown_transform(partial(elem, Family.Wplus), m - 1)


def g_down(n: int) -> NCPoly:
    return down_transform(partial(series.family_element, Family.G), n)


def gt_down(n: int) -> NCPoly:
    return down_transform(partial(series.family_element, Family.Gtilde), n)


# -- the S/T substitutions ---------------------------------------------------


def st_series(which: str, order: int) -> TruncSeries:
    """The scalar power series S or T in t."""
    q2 = qfield.q_int(2)
    coeffs = {}
    sign = -1 if which == "S" else 1
    for l in range(order // 2 + 1):
        n = 2 * l + 1
        if n > order:
            break
        coeffs[(n,)] = NCPoly.scalar(
            qfield.of((-1) ** l) * q2 * qfield.q_pow(sign * n))
    return TruncSeries(("t",), (order,), (1,), coeffs)


def subst_ST(family: Family, which: str, weight: str, order: int) -> TruncSeries:
    """A generating function evaluated at S or T, via the closed forms.

    weight "plain" gives a(S) or a(T); "times_ST_arg" gives S*a(S) or
    T*a(T).  Never generic power-series composition.
    """
    if which not in ("S", "T"):
        raise ValueError("which must be 'S' or 'T'")
    sgn = -1 if which == "S" else 1
    q2 = qfield.q_int(2)
    coeffs: Dict = {}
    a = partial(series.family_element, family)
    if weight == "plain":
        for n in range(order + 1):
            elem = down_transform(a, n)
            coeffs[(n,)] = elem * (qfield.q_pow(sgn * n) * q2 ** n)
    elif weight == "times_ST_arg":
        for n in range(order):
            elem = ddown_transform(a, n)
            coeffs[(n + 1,)] = elem * (qfield.q_pow(sgn * (n + 1)) * q2 ** (n + 1))
        return TruncSeries(("t",), (order,), (1,), coeffs)
    else:
        raise ValueError("weight must be 'plain' or 'times_ST_arg'")
    return TruncSeries(("t",), (order,), (0,), coeffs)


def _st_bundle(m: int):
    """The series that Z(t), its PBW form and its matrix factorization are
    built from, to order m: S*W-(S), S*W+(S), T*W-(T), T*W+(T), then G(S),
    Gt(S), G(T), Gt(T)."""
    return ([subst_ST(fam, which, "times_ST_arg", m) for which in ("S", "T")
             for fam in (Family.Wminus, Family.Wplus)]
            + [subst_ST(fam, which, "plain", m) for which in ("S", "T")
               for fam in (Family.G, Family.Gtilde)])


# -- Z(t) and the elements Z_n ------------------------------------------------


def z_series(order: int, reduce: bool = True) -> TruncSeries:
    """The central generating function, coefficients in PBW normal form."""
    m = order + 3
    swm, swp, twm, twp, gs, _, _, gtt = _st_bundle(m)
    q = qfield.q_pow
    z = ((swm * twp).shift("t", -1)
         + (swp * twm).shift("t", 1)
         - q(2) * (swm * twm)
         - q(-2) * (swp * twp)
         + INV_Q2M_SQ * (gs * gtt))
    z = _window(z, order, "central series")
    return z.normal_form() if reduce else z


def _window(z: TruncSeries, order: int, what: str) -> TruncSeries:
    """z cut to the exponents 0..order, which it must know in full."""
    if z.order[0] < order:
        raise RuntimeError(f"insufficient margin building the {what}")
    return TruncSeries(("t",), (order,), (0,),
                       {e: p for e, p in z.coeffs.items() if e[0] <= order})


def z_series_alt(form: int, order: int) -> TruncSeries:
    """The three alternative assemblies of the central series (form 1..3).

    Form 1 is the image of the z_series assembly under sigma, form 2 its
    image under dagger and form 3 its image under sigma after dagger; each
    is mapped in the free algebra and then reduced to normal form.
    """
    maps = {1: sigma, 2: dagger, 3: lambda p: sigma(dagger(p))}
    if form not in maps:
        raise ValueError("form must be 1, 2 or 3")
    return z_series(order, reduce=False).map_coeffs(maps[form]).normal_form()


def z_series_pbw_form(order: int) -> TruncSeries:
    """The assembly whose last term carries the divided G-difference:
    ST [t^-1 W-(S)W+(T) + t W-(T)W+(S) - q^2 W-(S)W-(T) - q^-2 W+(S)W+(T)
    + (t G(T)Gt(S) - t^-1 G(S)Gt(T)) / ((S - T)(q^2 - q^-2)[2]^2)]."""
    m = order + 3
    swm, swp, twm, twp, gs, gts, g_T, gt_T = _st_bundle(m)
    S, T = st_series("S", m), st_series("T", m)
    q = qfield.q_pow
    u = (g_T * gts).shift("t", 1) - (gs * gt_T).shift("t", -1)
    gpart = series.exact_divide(u, S - T) * rewrite.E_II
    z = ((swm * twp).shift("t", -1)
         + (twm * swp).shift("t", 1)
         - q(2) * (swm * twm)
         - q(-2) * (swp * twp)
         + (S * T) * gpart)
    return _window(z, order, "PBW-form series").normal_form()


def _five_sum_terms(n: int, elem, g_range) -> List[NCPoly]:
    """The terms of the four W sums and the G sum over g_range of the
    closed Z_n formula, unreduced; elem(family, k) supplies the letter
    polynomials."""
    q = qfield.q_pow
    q2 = qfield.q_int(2)
    w = partial(w_ddown, elem=elem)
    g, gt = partial(elem, Family.G), partial(elem, Family.Gtilde)
    return ([(w(-k) * w(n - k)) * (q2 * q(n - 1 - 2 * k)) for k in range(n)]
            + [(w(n - 2 - k) * w(-k)) * (q2.inverse() * q(2 * k - n + 3))
               for k in range(n - 2)]
            + [(w(-k) * w(k - n + 2)) * -q(n - 2 * k) for k in range(n - 1)]
            + [(w(k + 1) * w(n - k - 1)) * -q(n - 2 * k - 4)
               for k in range(n - 1)]
            + [(down_transform(g, k) * down_transform(gt, n - k))
               * (INV_Q2M_SQ * q(n - 2 * k)) for k in g_range])


def z_n_direct_poly(n: int) -> NCPoly:
    """The closed five-sum formula, reduced to normal form."""
    return rewrite.normal_form(NCPoly.sum(
        _five_sum_terms(n, series.family_element, range(n + 1))))


def z_n(n: int, route: str = "direct") -> NCPoly:
    """Z_n in normal form: by "direct" the reduced five-sum formula, by
    "extraction" the t^n coefficient of the central series over [2]_q^n."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if route == "direct":
        return z_n_direct_poly(n)
    if route == "extraction":
        return z_series(n).coeff(t=n) * qfield.q_int(2) ** -n
    raise ValueError("route must be 'direct' or 'extraction'")


def z_bar(n: int) -> NCPoly:
    """The n-th central element with its two top G terms removed."""
    if n < 1:
        raise ValueError("the adjusted central element needs n >= 1")
    zn = z_n(n)
    corr = (NCPoly.gen(g_(n)) * qfield.q_pow(-n)
            + NCPoly.gen(gt_(n)) * qfield.q_pow(n)) * qfield.QM.inverse()
    return rewrite.normal_form(zn + corr)


def z_bar_subtracted_form(n: int) -> NCPoly:
    """The same element via direct subtraction of the scalar-paired terms."""
    if n < 1:
        raise ValueError("n >= 1 required")
    zn = z_n(n)
    q, g0 = qfield.q_pow, qfield.G0
    sub = ((NCPoly.gen(gt_(n)) * (g0 * q(n)) + NCPoly.gen(g_(n)) * (g0 * q(-n)))
           * INV_Q2M_SQ)
    return rewrite.normal_form(zn - sub)


def z_bar_expanded_poly(n: int, elem=None) -> NCPoly:
    """The expanded formula for the adjusted element, in lower-index letters.

    elem(family, k) supplies the letter polynomials; the default uses the
    true letters.  The recursion passes recovered polynomials instead, so
    the G sum stops short of G_n and Gt_n, which it has yet to recover.
    """
    if n < 1:
        raise ValueError("n >= 1 required")
    if elem is None:
        elem = series.family_element
    q = qfield.q_pow
    qm_inv = qfield.QM.inverse()
    inv2sq = qfield.q_int(2) ** -2
    terms = _five_sum_terms(n, elem, range(1, n))
    for l in range(1, (n - 1) // 2 + 1):
        c = qfield.of((-1) ** l * comb(n - 1 - l, l)) * inv2sq ** l
        terms.append(elem(Family.G, n - 2 * l) * -(c * q(-n) * qm_inv))
        terms.append(elem(Family.Gtilde, n - 2 * l) * -(c * q(n) * qm_inv))
    return NCPoly.sum(terms)


def delta_n(n: int) -> NCPoly:
    """The classical central elements; a scalar multiple of the new ones."""
    if n < 1:
        raise ValueError("n >= 1 required")
    return z_n(n) * delta_scale(n)


def delta_scale(n: int) -> QRat:
    return qfield.of(-2) * qfield.QM / (qfield.q_pow(n) + qfield.q_pow(-n))


def generators_up_to(index_bound: int) -> List[Generator]:
    """The first index_bound letters of each family, index-major: W-, W+, G, Gt."""
    return [g for k in range(index_bound)
            for g in (wm(k), wp(k + 1), g_(k + 1), gt_(k + 1))]


def check_central(n: int, index_bound: int = 6) -> Report:
    """Certify [Z_n, g] = 0 for every generator up to the index bound."""
    report = Report(f"central-n{n}")
    zn = z_n(n)
    for g in generators_up_to(index_bound):
        c = rewrite.normal_form(commutator(zn, NCPoly.gen(g)))
        report.add(f"[Z_{n},{g.text()}]", c.is_zero(),
                   "" if c.is_zero() else "nonzero commutator")
    return report


# -- generator recovery --------------------------------------------------------


def recover_generators(N: int, zs=None) -> Dict[Generator, NCPoly]:
    """Rebuild every generator up to level N from the degree-one pair.

    zs maps each n from 1 to N to the NCPoly Z_n (by default z_n(n));
    a missing entry is an error.  Returns the recovered polynomial for
    each generator, in normal form.
    """
    if N < 1:
        raise ValueError("N >= 1 required")
    if zs is None:
        zs = {n: z_n(n) for n in range(1, N + 1)}
    table: Dict[Generator, NCPoly] = {
        wm(0): NCPoly.gen(wm(0)),
        wp(1): NCPoly.gen(wp(1)),
    }

    def elem(family: Family, k: int) -> NCPoly:
        letter = series.family_element(family, k)
        if letter.is_scalar():
            return letter
        [(g,)] = letter.terms
        try:
            return table[g]
        except KeyError:
            raise KeyError(f"recursion touched {g.text()} before recovery") from None

    q = qfield.q_pow
    q2 = qfield.q_int(2)
    for n in range(1, N + 1):
        zbar = rewrite.normal_form(z_bar_expanded_poly(n, elem))
        w0, w1 = table[wm(0)], table[wp(1)]
        wn = table[wp(n)]
        br = rewrite.normal_form(commutator(w0, wn))
        gn = ((zbar - zs[n]) * qfield.QM - br * (q(n) * q2)) * (
            (q(n) + q(-n)).inverse())
        gn = rewrite.normal_form(gn)
        table[g_(n)] = gn
        table[gt_(n)] = rewrite.normal_form(gn + br * q2)
        table[wm(n)] = rewrite.normal_form(
            wn - q_commutator(w0, gn) * INV_Q2M_SQ)
        w1mn = table[wm(n - 1)]
        table[wp(n + 1)] = rewrite.normal_form(
            w1mn - q_commutator(gn, w1) * INV_Q2M_SQ)
    return table


def check_recovery(N: int, table: Dict[Generator, NCPoly]) -> Report:
    """Check that table, as built by recover_generators(N), gives back
    every generator up to level N."""
    report = Report(f"recover-{N}")
    for n in range(1, N + 1):
        for g in (g_(n), gt_(n), wm(n), wp(n + 1)):
            ok = table[g] == NCPoly.gen(g)
            report.add(f"recovered {g.text()}", ok,
                       "" if ok else f"got {table[g]!r}")
    return report


# -- matrix factorization --------------------------------------------------------


def _matrix_pair(order: int):
    swm, swp, twm, twp, gs, gts, g_T, gt_T = _st_bundle(order + 4)
    q = qfield.q_pow
    inv = qfield.Q2M.inverse()
    left = [
        [swp.shift("t", 1) * q(-1) - swm * qfield.Q, gs * inv],
        [gts * inv, swp.shift("t", -1) * qfield.Q - swm * q(-1)],
    ]
    right = [
        [twm * qfield.Q - twp.shift("t", -1) * q(-1), g_T * inv],
        [gt_T * inv, twm * q(-1) - twp.shift("t", 1) * qfield.Q],
    ]
    return left, right


def check_matrix_factorization(order: int) -> Report:
    """Both products of the two structured matrices equal Z(t) times I."""
    report = Report("matrix-factorization")
    z = z_series(order)
    left, right = _matrix_pair(order)

    def prod(m1, m2):
        one = qfield.QONE
        return [[series._products(((one, m1[i][0], m2[0][j]),
                                   (one, m1[i][1], m2[1][j])))
                 for j in range(2)] for i in range(2)]

    for tag, m1, m2 in (("LR", left, right), ("RL", right, left)):
        product = prod(m1, m2)
        for i in range(2):
            for j in range(2):
                entry = product[i][j].normal_form()
                if i == j:
                    # subtraction restricts to the common known window
                    ok = (entry - z).is_zero()
                    report.add(f"{tag}[{i + 1}{j + 1}] = Z(t)", ok)
                else:
                    ok = entry.is_zero()
                    report.add(f"{tag}[{i + 1}{j + 1}] = 0", ok)
    return report


# -- the two degree-one generators ------------------------------------------------


def dolan_grady_polys():
    """The two cubic relations of the degree-one pair, as LHS - RHS."""
    w0, w1 = NCPoly.gen(wm(0)), NCPoly.gen(wp(1))
    c = -qfield.RHO   # (q^2 - q^-2)^2
    inner = q_commutator(w0, w1)
    mid = q_commutator(w0, inner, -1)
    first = commutator(w0, mid) - c * commutator(w1, w0)
    inner2 = q_commutator(w1, w0)
    mid2 = q_commutator(w1, inner2, -1)
    second = commutator(w1, mid2) - c * commutator(w0, w1)
    return first, second


def check_dolan_grady() -> Report:
    report = Report("dolan-grady")
    first, second = dolan_grady_polys()
    r1 = rewrite.normal_form(first)
    r2 = rewrite.normal_form(second)
    report.add("first relation", r1.is_zero())
    report.add("second relation", r2.is_zero())
    report.add("symmetry image", sigma(first) == second)
    return report


def check_appendix_b() -> Report:
    """The transform tables: every row, letter for letter."""
    report = Report("appendix-b")
    q2 = qfield.q_int(2)

    def entry(rows):
        return NCPoly([((letter,), qfield.of(coeff_int) * q2 ** (-pw))
                       for coeff_int, pw, letter in rows])

    wminus_rows = {
        0: [(1, 0, wm(0))],
        1: [(1, 0, wm(1))],
        2: [(1, 0, wm(2)), (-1, 2, wm(0))],
        3: [(1, 0, wm(3)), (-2, 2, wm(1))],
        4: [(1, 0, wm(4)), (-3, 2, wm(2)), (1, 4, wm(0))],
        5: [(1, 0, wm(5)), (-4, 2, wm(3)), (3, 4, wm(1))],
        6: [(1, 0, wm(6)), (-5, 2, wm(4)), (6, 4, wm(2)), (-1, 6, wm(0))],
        7: [(1, 0, wm(7)), (-6, 2, wm(5)), (10, 4, wm(3)), (-4, 6, wm(1))],
        8: [(1, 0, wm(8)), (-7, 2, wm(6)), (15, 4, wm(4)), (-10, 6, wm(2)),
            (1, 8, wm(0))],
    }
    for n, rows in wminus_rows.items():
        ok = w_ddown(-n) == entry(rows)
        report.add(f"Wminus ddown n={n}", ok)
    wplus_rows = {
        n: [(c, pw, wp(g.k + 1)) for (c, pw, g) in rows]
        for n, rows in wminus_rows.items()
    }
    for n, rows in wplus_rows.items():
        ok = w_ddown(n + 1) == entry(rows)
        report.add(f"Wplus ddown n={n}", ok)
    g_rows = {
        1: [(1, 0, g_(1))],
        2: [(1, 0, g_(2))],
        3: [(1, 0, g_(3)), (-1, 2, g_(1))],
        4: [(1, 0, g_(4)), (-2, 2, g_(2))],
        5: [(1, 0, g_(5)), (-3, 2, g_(3)), (1, 4, g_(1))],
        6: [(1, 0, g_(6)), (-4, 2, g_(4)), (3, 4, g_(2))],
        7: [(1, 0, g_(7)), (-5, 2, g_(5)), (6, 4, g_(3)), (-1, 6, g_(1))],
        8: [(1, 0, g_(8)), (-6, 2, g_(6)), (10, 4, g_(4)), (-4, 6, g_(2))],
        9: [(1, 0, g_(9)), (-7, 2, g_(7)), (15, 4, g_(5)), (-10, 6, g_(3)),
            (1, 8, g_(1))],
    }
    for n, rows in g_rows.items():
        report.add(f"G down n={n}", g_down(n) == entry(rows))
        trows = [(c, pw, gt_(g.k + 1)) for (c, pw, g) in rows]
        report.add(f"Gtilde down n={n}", gt_down(n) == entry(trows))
    report.add("G down n=0 is the scalar",
               g_down(0) == NCPoly.scalar(qfield.G0))
    report.add("Gtilde down n=0 is the scalar",
               gt_down(0) == NCPoly.scalar(qfield.G0))
    return report
