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


# The G rows of the Appendix-B table, as the paper writes them out:
# (integer, power of [2]^-1, letter) per term.  `check_appendix_b` derives
# them from the W- rows.
G_ROWS = {
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


@pytest.mark.parametrize("n", sorted(G_ROWS))
def test_g_down_matches_the_written_out_appendix_b_rows(n):
    q2 = qf.q_int(2)

    def entry(rows):
        return NCPoly([((letter,), qf.of(c) * q2 ** -pw)
                       for c, pw, letter in rows])

    assert C.g_down(n) == entry(G_ROWS[n])
    assert C.gt_down(n) == entry([(c, pw, gt_(g.k + 1))
                                  for c, pw, g in G_ROWS[n]])


def test_st_series_expansion():
    s = C.st_series("S", 5)
    q2 = qf.q_int(2)
    assert s.coeff(t=1) == NCPoly.scalar(q2 * qf.q_pow(-1))
    assert s.coeff(t=2).is_zero()
    assert s.coeff(t=3) == NCPoly.scalar(-(q2 * qf.q_pow(-3)))
    t = C.st_series("T", 5)
    assert t.coeff(t=1) == NCPoly.scalar(q2 * qf.Q)
    assert t.coeff(t=5) == NCPoly.scalar(q2 * qf.q_pow(5))


def test_st_over_s_minus_t_closed_form():
    # ST/(S - T) = -[2]t/((q - q^-1)(1 - t^2)); times E_II it is the odd
    # series -t/((q^2 - q^-2)^2 (1 - t^2)) of the PBW form of Z(t)
    c = -(qf.q_int(2) * qf.QM.inverse())
    assert c * R.E_II == -C.INV_Q2M_SQ
    for order in range(9):
        s, t = C.st_series("S", order), C.st_series("T", order)
        odd = S.TruncSeries(("t",), (order,), (1,),
                            {(n,): NCPoly.scalar(c)
                             for n in range(1, order + 1, 2)})
        st = s * t
        assert ((s - t) * odd - st).is_zero(), order
        assert order == 0 or not st.is_zero()


def compose_generic(family, arg, order):
    """Brute-force substitution of a scalar series into a generating function."""
    out = S.constant(S.family_element(family, 0), ("t",))
    power = S.constant(NCPoly.one(), ("t",))
    for n in range(1, order + 1):
        power = power * arg
        out = out + power * S.constant(S.family_element(family, n), ("t",))
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
    for order in range(9):
        base = C.z_series(order)
        for form in (1, 2, 3) if order < 5 else ():
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


@pytest.mark.parametrize("n", range(1, 8))
def test_z_bar_expanded_letters_are_those_recovered_before_step_n(n):
    # the recursion substitutes recovered letters into this formula, so it
    # must use W_-k (k < n), W_k (1 <= k <= n), G_k and Gt_k (k < n), all
    # of them and nothing else
    letters = {g for w in C.z_bar_expanded_poly(n).words() for g in w}
    assert letters == ({wm(k) for k in range(n)}
                       | {wp(k) for k in range(1, n + 1)}
                       | {g_(k) for k in range(1, n)}
                       | {gt_(k) for k in range(1, n)})


def test_substitute_is_the_algebra_map_of_its_table():
    w0, w1, g1 = NCPoly.gen(wm(0)), NCPoly.gen(wp(1)), NCPoly.gen(g_(1))
    p = NCPoly.word((wm(0), wp(1)), qf.Q) + NCPoly.scalar(qf.G0)
    table = {wm(0): w1 + g1, wp(1): w0 * qf.q_int(3)}
    assert C._substitute(p, table) == (
        (w1 + g1) * w0 * (qf.Q * qf.q_int(3)) + NCPoly.scalar(qf.G0))
    with pytest.raises(KeyError, match=r"recursion touched G\[1\] before "
                                       r"recovery"):
        C._substitute(p * g1, table)


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
