import pytest

from qonsager import central as C
from qonsager import qfield as qf
from qonsager import rewrite as R
from qonsager import series as S
from qonsager.words import (Family, NCPoly, dagger, g_, gt_, sigma,
                            word_degree, wm, wp)


def letter_seq(family):
    return lambda n: S.family_element(family, n)


def test_down_transform_examples():
    gseq = letter_seq(Family.G)
    inv2sq = qf.q_int(2) ** -2
    got = C.down_transform(gseq, 3)
    assert got == NCPoly.gen(g_(3)) - NCPoly.gen(g_(1)) * inv2sq
    assert C.down_transform(gseq, 0) == NCPoly.scalar(qf.G0)
    gt9 = C.down_transform(letter_seq(Family.Gtilde), 9)
    expected = (NCPoly.gen(gt_(9))
                - NCPoly.gen(gt_(7)) * (7 * inv2sq)
                + NCPoly.gen(gt_(5)) * (15 * inv2sq ** 2)
                - NCPoly.gen(gt_(3)) * (10 * inv2sq ** 3)
                + NCPoly.gen(gt_(1)) * inv2sq ** 4)
    assert gt9 == expected


def test_ddown_transform_examples():
    inv2sq = qf.q_int(2) ** -2
    got = C.ddown_transform(letter_seq(Family.Wminus), 2)
    assert got == NCPoly.gen(wm(2)) - NCPoly.gen(wm(0)) * inv2sq
    assert C.ddown_transform(letter_seq(Family.Wminus), 0) == NCPoly.gen(wm(0))
    w9 = C.ddown_transform(letter_seq(Family.Wplus), 8)
    expected = (NCPoly.gen(wp(9))
                - NCPoly.gen(wp(7)) * (7 * inv2sq)
                + NCPoly.gen(wp(5)) * (15 * inv2sq ** 2)
                - NCPoly.gen(wp(3)) * (10 * inv2sq ** 3)
                + NCPoly.gen(wp(1)) * inv2sq ** 4)
    assert w9 == expected


def test_appendix_b_tables():
    rep = C.check_appendix_b()
    assert rep.passed, [r.name for r in rep.failures()]
    assert len(rep.results) == 9 + 9 + 9 * 2 + 2


def test_st_series_expansion():
    s = C.st_series("S", 5)
    q2 = qf.q_int(2)
    assert s.coeff(t=1) == NCPoly.scalar(q2 * qf.q_pow(-1))
    assert s.coeff(t=2).is_zero()
    assert s.coeff(t=3) == NCPoly.scalar(-(q2 * qf.q_pow(-3)))
    t = C.st_series("T", 5)
    assert t.coeff(t=1) == NCPoly.scalar(q2 * qf.Q)
    assert t.coeff(t=5) == NCPoly.scalar(q2 * qf.q_pow(5))


def compose_generic(family, arg, order):
    """Brute-force substitution of a scalar series into a generating function."""
    out = S.constant(S.family_element(family, 0), ("t",))
    power = S.constant(NCPoly.one(), ("t",))
    for n in range(1, order + 1):
        power = power * arg
        out = out + power * S.family_element(family, n)
    window = min(out.order[0], order)
    return S.TruncSeries(("t",), (window,), (0,),
                         {e: p for e, p in out.coeffs.items() if e[0] <= window})


@pytest.mark.parametrize("family", [Family.Wminus, Family.Wplus,
                                    Family.G, Family.Gtilde])
@pytest.mark.parametrize("which", ["S", "T"])
def test_subst_matches_generic_composition(family, which):
    order = 4
    closed = C.subst_ST(family, which, "plain", order)
    arg = C.st_series(which, order + 1)
    brute = compose_generic(family, arg, order + 1)
    d = closed - brute
    assert d.is_zero(), d.nonzero_exponents()
    # and the weighted variant is the series times its argument
    weighted = C.subst_ST(family, which, "times_ST_arg", order)
    d2 = weighted - arg * closed
    assert d2.is_zero()


def test_subst_first_coefficients():
    got = C.subst_ST(Family.Wminus, "S", "plain", 2)
    assert got.coeff(t=0) == NCPoly.gen(wm(0))
    assert got.coeff(t=1) == NCPoly.gen(wm(1)) * (qf.q_pow(-1) * qf.q_int(2))
    weighted = C.subst_ST(Family.G, "S", "times_ST_arg", 3)
    assert weighted.coeff(t=0).is_zero()


def test_z0_is_the_squared_quantum_two():
    z0 = C.z_n(0)
    assert z0 == NCPoly.scalar(qf.q_int(2) ** 2)
    assert C.z_series(0).coeff(t=0) == NCPoly.scalar(qf.q_int(2) ** 2)


def test_z1_value():
    qm = qf.Q - qf.q_pow(-1)
    expected = R.normal_form(
        NCPoly.word((wm(0), wp(1)), qf.q_int(2))
        - (NCPoly.gen(gt_(1)) * qf.Q + NCPoly.gen(g_(1)) * qf.q_pow(-1))
        * qm.inverse())
    assert C.z_n(1) == expected


@pytest.mark.parametrize("n", range(5))
def test_route_agreement(n):
    assert C.z_n(n, "direct") == C.z_n(n, "extraction")


@pytest.mark.parametrize("n", range(5))
def test_z_n_symmetry_and_degree(n):
    zn = C.z_n(n)
    assert R.normal_form(sigma(zn)) == zn
    assert R.normal_form(dagger(zn)) == zn
    assert all(word_degree(w) <= 2 * n for w in zn.words())


def test_z_series_forms_agree():
    for order in range(5):
        base = C.z_series(order)
        for form in (1, 2, 3):
            assert (base - C.z_series_alt(form, order)).is_zero(), (order, form)
        assert (base - C.z_series_pbw_form(order)).is_zero(), order


def test_z_series_symmetry():
    base = C.z_series(3)
    snf = base.map_coeffs(lambda p: R.normal_form(sigma(p)))
    dnf = base.map_coeffs(lambda p: R.normal_form(dagger(p)))
    assert (base - snf).is_zero()
    assert (base - dnf).is_zero()


def test_z_bar_forms_and_letter_exclusion():
    for n in range(1, 5):
        a = C.z_bar(n)
        assert a == C.z_bar_subtracted_form(n)
        assert a == R.normal_form(C.z_bar_expanded_poly(n))
        for w in a.words():
            assert g_(n) not in w and gt_(n) not in w
    assert C.z_bar(1) == NCPoly.word((wm(0), wp(1)), qf.q_int(2))
    with pytest.raises(ValueError):
        C.z_bar(0)


def test_centrality_small():
    rep0 = C.check_central(0, 4)
    assert rep0.passed
    rep1 = C.check_central(1, 4)
    assert rep1.passed
    z3 = C.z_n(3)
    from qonsager.words import commutator
    assert R.normal_form(commutator(z3, NCPoly.gen(gt_(4)))).is_zero()


def test_generators_up_to_counts():
    gens = C.generators_up_to(6)
    assert len(gens) == 24
    assert wm(5) in gens and wp(6) in gens and g_(6) in gens and gt_(6) in gens
    assert wm(6) not in gens


def test_delta_n():
    scale1 = C.delta_scale(1)
    assert scale1 == (qf.of(-2) * (qf.Q - qf.q_pow(-1)) / (qf.Q + qf.q_pow(-1)))
    assert C.delta_n(1) == C.z_n(1) * scale1
    for n in (1, 2, 3):
        assert C.delta_scale(n).p % 2 == 0
    # centrality is inherited from the scalar multiple
    from qonsager.words import commutator
    d2 = C.delta_n(2)
    assert R.normal_form(commutator(d2, NCPoly.gen(wm(0)))).is_zero()


def test_recover_generators():
    table = C.recover_generators(2)
    assert table[g_(1)] == NCPoly.gen(g_(1))
    assert table[wm(1)] == NCPoly.gen(wm(1))
    assert table[gt_(2)] == NCPoly.gen(gt_(2))
    assert table[wp(3)] == NCPoly.gen(wp(3))
    with pytest.raises(ValueError):
        C.recover_generators(0)
    with pytest.raises(KeyError):
        C.recover_generators(2, zs={1: C.z_n(1)})


def test_recovery_order_matches_listed_sequence():
    # the recursion only ever consumes already-recovered letters, in the
    # order W_0, W_1, G_1, Gt_1, W_-1, W_2, G_2, ...
    rep = C.check_recovery(3, C.recover_generators(3))
    assert rep.passed, [r.name for r in rep.failures()]


def test_matrix_factorization_small():
    rep = C.check_matrix_factorization(2)
    assert rep.passed, [(r.name, r.detail) for r in rep.failures()]
    names = [r.name for r in rep.results]
    assert "LR[12] = 0" in names and "RL[21] = 0" in names
    assert "LR[11] = Z(t)" in names and "RL[22] = Z(t)" in names


def test_matrix_factorization_order_zero():
    rep = C.check_matrix_factorization(0)
    assert rep.passed


def test_dolan_grady():
    rep = C.check_dolan_grady()
    assert rep.passed
    first, second = C.dolan_grady_polys()
    assert sigma(first) == second
