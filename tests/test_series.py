import random

import pytest

from qonsager import qfield as qf
from qonsager import series as S
from qonsager.words import Family, NCPoly, g_, gt_, wm, wp


def test_gf_coefficients():
    ts = S.gf(Family.Wminus, "t", 2)
    assert ts.coeff(t=0) == NCPoly.gen(wm(0))
    assert ts.coeff(t=1) == NCPoly.gen(wm(1))
    assert ts.coeff(t=2) == NCPoly.gen(wm(2))
    g = S.gf(Family.G, "t", 1)
    assert g.coeff(t=0) == NCPoly.scalar(qf.g0_const())
    assert g.coeff(t=1) == NCPoly.gen(g_(1))
    wplus = S.gf(Family.Wplus, "t", 4)
    assert wplus.coeff(t=0) == NCPoly.gen(wp(1))


def test_commutator_with_w0_vanishes():
    w0 = S.constant(NCPoly.gen(wm(0)), ("t",))
    c = S.bracket(S.gf(Family.Wminus, "t", 3), w0)
    assert c.normal_form().is_zero()


def test_q_commutator_of_equal_arguments():
    x = S.gf(Family.Wplus, "t", 2)
    got = S.q_bracket(x, x)
    expected = (x * x) * (qf.Q - qf.q_pow(-1))
    assert (got - expected).is_zero()


def test_mul_with_zero():
    x = S.gf(Family.G, "t", 3)
    z = S.zero(("t",))
    assert (x * z).is_zero()


def test_exact_divide_scalar_difference():
    # (s^2 - t^2)/(s - t) = s + t
    one = NCPoly.one()
    a = S.TruncSeries(("s", "t"), (4, 4), (0, 0), {(2, 0): one, (0, 2): -one})
    got = S.exact_divide(a, "s-t")
    assert got.coeff(s=1) == one
    assert got.coeff(t=1) == one
    assert got.coeff(s=0, t=0).is_zero()


def test_exact_divide_detects_remainder():
    one = NCPoly.one()
    a = S.TruncSeries(("s", "t"), (3, 3), (0, 0), {(1, 0): one})
    with pytest.raises(S.DivisibilityError):
        S.exact_divide(a, "s-t")


def test_exact_divide_divided_difference_expansion():
    # the antisymmetric G difference: quotient coefficients follow the
    # double-sum pattern over l = 0..min(i,j)
    order = 7
    g_t = S.gf(Family.G, "t", order)
    gt_s = S.gf(Family.Gtilde, "s", order)
    g_s = S.gf(Family.G, "s", order)
    gt_t = S.gf(Family.Gtilde, "t", order)
    quotient = S.exact_divide(g_t * gt_s - g_s * gt_t, "s-t")

    from qonsager.words import symbol_from_subscript
    for i in range(3):
        for j in range(3):
            expected = NCPoly.zero()
            for l in range(min(i, j) + 1):
                a = NCPoly.symbol(symbol_from_subscript("G", l))
                b = NCPoly.symbol(symbol_from_subscript("Gt", i + j + 1 - l))
                c = NCPoly.symbol(symbol_from_subscript("G", i + j + 1 - l))
                d = NCPoly.symbol(symbol_from_subscript("Gt", l))
                expected = expected + a * b - c * d
            assert quotient.coeff(s=i, t=j) == expected, (i, j)


def test_exact_divide_round_trip():
    rng = random.Random(12)
    letters = [g_(1), wm(0), wp(2), gt_(1)]
    for _ in range(10):
        coeffs = {}
        for _ in range(6):
            e = (rng.randint(0, 3), rng.randint(0, 3))
            word = tuple(rng.choice(letters) for _ in range(rng.randint(0, 2)))
            coeffs[e] = NCPoly.word(word, qf.q_pow(rng.randint(-2, 2)))
        a = S.TruncSeries(("s", "t"), (3, 3), (0, 0), coeffs)
        product = a.shift("s", 1) - a.shift("t", 1)
        got = S.exact_divide(product, "s-t")
        window = got.order[0]
        for e, p in a.coeffs.items():
            if e[0] <= window and e[1] <= window:
                assert got.coeff(s=e[0], t=e[1]) == p
        for e in got.coeffs:
            assert got.coeffs[e] == a.coeffs.get(e, NCPoly.zero())


def test_exact_divide_by_t_unit():
    # divide t*(1 + t) * X by t and by t*(1+t)
    x = S.gf(Family.Wminus, "t", 4)
    one = NCPoly.one()
    t_unit = S.TruncSeries(("t",), (5,), (1,), {(1,): one, (2,): one})
    product = x.shift("t", 1) + x.shift("t", 2)
    got = S.exact_divide(product, t_unit)
    assert (got - x).is_zero()


def test_exact_divide_by_a_constant_keeps_the_dividend_window():
    x = S.gf(Family.Wminus, "t", 4)
    got = S.exact_divide(x, S.constant(1, ("t",)))
    assert got.order == (4,) and got.floor == (0,)
    assert got.coeffs == x.coeffs
    half = S.exact_divide(x, S.constant(2, ("t",)))
    assert half.order == (4,)
    assert (half * 2 - x).is_zero()


def test_exact_divide_with_both_windows_unbounded_is_refused():
    one = S.constant(1, ("t",))
    with pytest.raises(ValueError, match="both unbounded"):
        S.exact_divide(one, one)


def test_appendix_a_basic_shapes():
    a = S.appendixA_series("A", order=1)
    assert a.coeff(s=0, t=0).is_zero()  # [W_0, W_0]
    c = S.appendixA_series("C", order=3)
    assert c.normal_form().is_zero()
    for name in S.APPENDIX_A_NAMES:
        ts = S.appendixA_series(name, order=2)
        assert set(ts.vars) == {"s", "t"}
    with pytest.raises(ValueError):
        S.appendixA_series("X")


def test_appendix_a_combination_identities_free_algebra():
    order = 4
    q2 = qf.q_int(2)
    rho = qf.rho_const()

    def sA(name):
        return S.appendixA_series(name, order=order)

    C, J, A, B = sA("C"), sA("J"), sA("A"), sA("B")
    lhs = sA("R") + sA("S")
    rhs = (C.shift("s", 1) + C.shift("t", 1)) * (rho * q2) + J * q2
    assert (lhs - rhs).is_zero()

    lhs2 = sA("P") + sA("Q")
    inv = (q2 * rho).inverse()
    rhs2 = ((C + C.shift("s", 1).shift("t", 1)) * q2
            + (J.shift("s", -1) + J.shift("t", -1)) * inv
            - (A.shift("s", 1) + A.shift("t", 1)) * q2
            - (B.shift("s", 1) + B.shift("t", 1)) * q2)
    assert (lhs2 - rhs2).is_zero()


SIGMA_TABLE = {"A": "B", "B": "A", "C": "C", "D": "G", "E": "F", "F": "E",
               "G": "D", "H": "I", "I": "H", "J": "J", "K": "N", "L": "M",
               "M": "L", "N": "K", "P": "Q", "Q": "P", "R": "S", "S": "R"}
DAGGER_TABLE = {"A": "A", "B": "B", "C": "C", "D": "E", "E": "D", "F": "G",
                "G": "F", "H": "I", "I": "H", "J": "J", "K": "M", "L": "N",
                "M": "K", "N": "L", "P": "Q", "Q": "P", "R": "R", "S": "S"}


def test_sigma_images_match_builders_on_swapped_families():
    # sigma swaps W- with W+ and G with Gt, so each sigma image is its
    # source's builder applied to the swapped generating functions; no
    # call to sigma is made here
    swap = {"Wm": "Wp", "Wp": "Wm", "G": "Gt", "Gt": "G"}
    env = S._gf_env(3)
    swapped = {key: env[f"{swap[fam]}_{var}"]
               for key in env for fam, var in [key.split("_")]}
    for name, src in S._SIGMA_SOURCE.items():
        got = S.appendixA_series(name, 3)
        want = S._APPENDIX_A_BUILDERS[src](swapped)
        assert (got.order, got.floor) == (want.order, want.floor), name
        assert got.coeffs == want.coeffs, name


def test_symmetry_maps_permute_named_series():
    # the automorphism permutes the named combinations; the
    # antiautomorphism permutes and negates them
    from qonsager.words import dagger, sigma
    order = 3
    built = {name: S.appendixA_series(name, order=order)
             for name in S.APPENDIX_A_NAMES}
    for name, image in SIGMA_TABLE.items():
        got = built[name].map_coeffs(sigma)
        assert (got - built[image]).is_zero(), (name, image)
    for name, image in DAGGER_TABLE.items():
        got = built[name].map_coeffs(dagger)
        assert (got + built[image]).is_zero(), (name, image)


def test_coefficient_extraction_commutes_with_arith():
    rng = random.Random(13)
    fams = [Family.Wminus, Family.Wplus, Family.G, Family.Gtilde]
    for _ in range(6):
        f1, f2 = rng.choice(fams), rng.choice(fams)
        a = S.gf(f1, "s", 4)
        b = S.gf(f2, "t", 4)
        c = S.gf(rng.choice(fams), "s", 4)
        total = a * b + c * b
        for i in range(3):
            for j in range(3):
                manual = (a.coeff(s=i) * b.coeff(t=j)
                          + c.coeff(s=i) * b.coeff(t=j))
                assert total.coeff(s=i, t=j) == manual


def test_gf_relations_at_order_three():
    rep = S.check_gf_relations(3)
    assert rep.passed, [r.name for r in rep.failures()]
    names = {r.name for r in rep.results}
    assert "3pp1a" in names and "K" in names and "st*P" in names


def test_gf_relations_order_zero_subset():
    rep = S.check_gf_relations(0)
    assert rep.passed


def test_prop41_decompositions():
    rep = S.check_prop41_decompositions(3)
    assert rep.passed, [(r.name, r.detail) for r in rep.failures()]
    names = [r.name for r in rep.results]
    assert "decomposition-ii" in names
    assert "extraction-vii" in names


def test_floor_underflow_is_detected():
    one = NCPoly.one()
    a = S.TruncSeries(("t",), (3,), (-2,), {(-2,): one})
    with pytest.raises(S.FloorUnderflowError):
        a.shift("t", -1)


def test_out_of_window_exponent_is_an_internal_error():
    one = NCPoly.one()
    for e in ((4,), (-1,)):
        with pytest.raises(S.WindowError, match="outside window"):
            S.TruncSeries(("t",), (3,), (0,), {e: one})
