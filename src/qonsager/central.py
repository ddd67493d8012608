"""Central elements and the machinery around them.

The series Z(t) is assembled from the alternating-binomial resummations
of the generating functions at the two q-shifted arguments; its
coefficients, divided by powers of [2]_q, are the central elements.
They come out of two independent routes (series extraction and the
closed five-sum formula) which must agree, are fixed by both symmetry
maps, commute with every generator, and drive the recursion that
recovers all alternating generators from the two degree-one ones.

Every binomial resummation is `ddown_transform`: the W, G and Gt
transforms, both S/T substitutions and the G terms of the adjusted
element are built from it.  The recursion builds its formulas in the
true letters and maps them through the letters recovered so far
(`_substitute`), so it is a plain algebra map.
"""

from __future__ import annotations

from functools import partial
from math import comb
from typing import Callable, Dict, List

from . import qfield, rewrite, series
from .qfield import QRat
from .report import Report
from .series import TruncSeries
from .words import (Family, Generator, NCPoly, commutator, dagger, g_, gt_,
                    q_commutator, sigma, sigma_dagger, wm, wp)

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


def w_ddown(m: int) -> NCPoly:
    """The double-down W element with signed subscript m."""
    if m <= 0:
        return ddown_transform(partial(series.family_element, Family.Wminus), -m)
    return ddown_transform(partial(series.family_element, Family.Wplus), m - 1)


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
    """A generating function evaluated at S or T, via the closed form.

    weight "times_ST_arg" gives X*a(X) for X = S or T: its coefficient
    of t^(n+1) is ddown_transform(a, n) times q^(+-(n+1)) [2]^(n+1).
    weight "plain" gives a(X) = a(0) + X*a'(X), with a'(k) = a(k + 1).
    Never generic power-series composition.
    """
    if which not in ("S", "T"):
        raise ValueError("which must be 'S' or 'T'")
    if weight not in ("plain", "times_ST_arg"):
        raise ValueError("weight must be 'plain' or 'times_ST_arg'")
    sgn = -1 if which == "S" else 1
    q2 = qfield.q_int(2)
    a = partial(series.family_element, family)
    plain = weight == "plain"
    coeffs = {(0,): a(0)} if plain else {}
    b = (lambda k: a(k + 1)) if plain else a
    for n in range(order):
        coeffs[(n + 1,)] = (ddown_transform(b, n)
                            * (qfield.q_pow(sgn * (n + 1)) * q2 ** (n + 1)))
    return TruncSeries(("t",), (order,), (0 if plain else 1,), coeffs)


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
    z = _z_assembly(_st_bundle(order + 3), order)
    return z.normal_form() if reduce else z


def _z_assembly(bundle, order: int) -> TruncSeries:
    """Z(t) to order, not reduced, from an S/T bundle (`_st_bundle`) of
    order at least order + 3."""
    swm, swp, twm, twp, gs, _, _, gtt = bundle
    q = qfield.q_pow
    z = ((swm * twp).shift("t", -1)
         + (swp * twm).shift("t", 1)
         - q(2) * (swm * twm)
         - q(-2) * (swp * twp)
         + INV_Q2M_SQ * (gs * gtt))
    return _window(z, order, "central series")


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
    maps = {1: sigma, 2: dagger, 3: sigma_dagger}
    if form not in maps:
        raise ValueError("form must be 1, 2 or 3")
    return z_series(order, reduce=False).map_coeffs(maps[form]).normal_form()


def z_series_pbw_form(order: int) -> TruncSeries:
    """The assembly whose last term carries the divided G-difference:
    ST [t^-1 W-(S)W+(T) + t W-(T)W+(S) - q^2 W-(S)W-(T) - q^-2 W+(S)W+(T)
    + (t G(T)Gt(S) - t^-1 G(S)Gt(T)) / ((S - T)(q^2 - q^-2)[2]^2)].

    With S = [2]q^-1 t/(1 + q^-2 t^2) and T = [2]q t/(1 + q^2 t^2),
    ST/((S - T)(q^2 - q^-2)[2]^2) = -t/((q^2 - q^-2)^2 (1 - t^2)), so the
    G-difference is multiplied by that odd series and nothing is divided.
    """
    m = order + 3
    swm, swp, twm, twp, gs, gts, g_T, gt_T = _st_bundle(m)
    q = qfield.q_pow
    u = (g_T * gts).shift("t", 1) - (gs * gt_T).shift("t", -1)
    odd = TruncSeries(("t",), (m,), (1,), {(n,): NCPoly.scalar(-INV_Q2M_SQ)
                                           for n in range(1, m + 1, 2)})
    z = ((swm * twp).shift("t", -1)
         + (twm * swp).shift("t", 1)
         - q(2) * (swm * twm)
         - q(-2) * (swp * twp)
         + u * odd)
    return _window(z, order, "PBW-form series").normal_form()


def _five_sum_terms(n: int, g_range) -> List[NCPoly]:
    """The terms of the four W sums and the G sum over g_range of the
    closed Z_n formula, unreduced.  Each W transform is built once."""
    q = qfield.q_pow
    q2 = qfield.q_int(2)
    w = {m: w_ddown(m) for m in range(1 - n, n + 1)}
    return ([(w[-k] * w[n - k]) * (q2 * q(n - 1 - 2 * k)) for k in range(n)]
            + [(w[n - 2 - k] * w[-k]) * (q2.inverse() * q(2 * k - n + 3))
               for k in range(n - 2)]
            + [(w[-k] * w[k - n + 2]) * -q(n - 2 * k) for k in range(n - 1)]
            + [(w[k + 1] * w[n - k - 1]) * -q(n - 2 * k - 4)
               for k in range(n - 1)]
            + [(g_down(k) * gt_down(n - k)) * (INV_Q2M_SQ * q(n - 2 * k))
               for k in g_range])


def z_n_direct_poly(n: int) -> NCPoly:
    """The closed five-sum formula, reduced to normal form."""
    return rewrite.normal_form(NCPoly.sum(_five_sum_terms(n, range(n + 1))))


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


def z_bar_expanded_poly(n: int) -> NCPoly:
    """The expanded formula for the adjusted element, in lower-index letters.

    The G sum stops short of its k = 0 and k = n terms, and what those
    terms hold below G_n and Gt_n is added back:
    (g_down(n) - G_n)(-q^-n / (q - q^-1)) and its Gt match with q^n.
    Its letters are W_-k for k < n, W_k for 1 <= k <= n, and G_k and
    Gt_k for k < n: those that `recover_generators` has rebuilt before
    step n.
    """
    if n < 1:
        raise ValueError("n >= 1 required")
    q = qfield.q_pow
    qm_inv = qfield.QM.inverse()
    terms = _five_sum_terms(n, range(1, n))
    terms.append((g_down(n) - NCPoly.gen(g_(n))) * -(q(-n) * qm_inv))
    terms.append((gt_down(n) - NCPoly.gen(gt_(n))) * -(q(n) * qm_inv))
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


def _substitute(p: NCPoly, table: Dict[Generator, NCPoly]) -> NCPoly:
    """The image of p under the algebra map that sends each letter g to
    table[g]; a letter the table lacks has not been recovered yet."""
    images = []
    for w, c in p.terms.items():
        image = NCPoly.scalar(c)
        for g in w:
            if g not in table:
                raise KeyError(f"recursion touched {g.text()} before recovery")
            image = image * table[g]
        images.append(image)
    return NCPoly.sum(images)


def recover_generators(N: int, zs=None) -> Dict[Generator, NCPoly]:
    """Rebuild every generator up to level N from the degree-one pair.

    zs maps each n from 1 to N to the NCPoly Z_n (by default z_n(n));
    a missing entry is an error.  Step n maps z_bar_expanded_poly(n)
    through the table of the letters recovered before it, then solves for
    G_n, Gt_n, W_-n and W_n+1.  Returns the recovered polynomial for each
    generator, in normal form.
    """
    if N < 1:
        raise ValueError("N >= 1 required")
    if zs is None:
        zs = {n: z_n(n) for n in range(1, N + 1)}
    table: Dict[Generator, NCPoly] = {
        wm(0): NCPoly.gen(wm(0)),
        wp(1): NCPoly.gen(wp(1)),
    }
    q = qfield.q_pow
    q2 = qfield.q_int(2)
    for n in range(1, N + 1):
        zbar = rewrite.normal_form(_substitute(z_bar_expanded_poly(n), table))
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


def _matrix_pair(bundle):
    swm, swp, twm, twp, gs, gts, g_T, gt_T = bundle
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
    """Both products of the two structured matrices equal Z(t) times I.
    Z(t) and both matrices are built from one S/T bundle of order
    order + 4."""
    report = Report("matrix-factorization")
    bundle = _st_bundle(order + 4)
    z = _z_assembly(bundle, order).normal_form()
    left, right = _matrix_pair(bundle)

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

    def relabel(rows, letter):
        """A W- row with each W_-k renamed letter(k + 1)."""
        return [(c, pw, letter(g.k + 1)) for (c, pw, g) in rows]

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
    for n, rows in wminus_rows.items():
        ok = w_ddown(n + 1) == entry(relabel(rows, wp))
        report.add(f"Wplus ddown n={n}", ok)
    # the G and Gt rows n + 1 are the W- row n relabelled
    for n, rows in wminus_rows.items():
        report.add(f"G down n={n + 1}",
                   g_down(n + 1) == entry(relabel(rows, g_)))
        report.add(f"Gtilde down n={n + 1}",
                   gt_down(n + 1) == entry(relabel(rows, gt_)))
    report.add("G down n=0 is the scalar",
               g_down(0) == NCPoly.scalar(qfield.G0))
    report.add("Gtilde down n=0 is the scalar",
               gt_down(0) == NCPoly.scalar(qfield.G0))
    return report
