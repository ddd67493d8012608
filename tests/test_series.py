import gc
import random
import weakref

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qonsager import qfield as qf
from qonsager import rewrite
from qonsager import series as S
from qonsager.words import Family, NCPoly, g_, gt_, sigma, wm, wp


def test_gf_coefficients():
    ts = S.gf(Family.Wminus, "t", 2)
    assert ts.coeff(t=0) == NCPoly.gen(wm(0))
    assert ts.coeff(t=1) == NCPoly.gen(wm(1))
    assert ts.coeff(t=2) == NCPoly.gen(wm(2))
    g = S.gf(Family.G, "t", 1)
    assert g.coeff(t=0) == NCPoly.scalar(qf.G0)
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
    rho = qf.RHO

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
    # source built from the swapped generating functions; no call to
    # sigma is made here (E and L, the sources of F and M, are dagger
    # images of D and K, built on the swapped functions)
    swap = {"Wm": "Wp", "Wp": "Wm", "G": "Gt", "Gt": "G"}
    env = S._gf_env(3)
    swapped = S._appendix_a({key: env[f"{swap[fam]}_{var}"]
                             for key in env for fam, var in [key.split("_")]})
    images = {name: src for name, (src, image) in S._IMAGES.items()
              if image is sigma}
    assert sorted(images) == ["B", "F", "G", "I", "M", "N", "Q", "S"]
    for name, src in images.items():
        got = S.appendixA_series(name, 3)
        want = swapped(src)
        assert (got.order, got.floor) == (want.order, want.floor), name
        assert got.coeffs == want.coeffs, name


def _chain_end(name):
    """The builder at the end of name's chain of image sources."""
    while name in S._IMAGES:
        name = S._IMAGES[name][0]
    return name


def test_every_named_series_is_built_or_an_image_of_a_built_one():
    assert sorted(S._APPENDIX_A_BUILDERS) == ["A", "C", "D", "H", "J", "K",
                                              "P", "R"]
    assert not set(S._APPENDIX_A_BUILDERS) & set(S._IMAGES)
    for name in S.APPENDIX_A_NAMES:
        assert _chain_end(name) in S._APPENDIX_A_BUILDERS, name
    assert S.APPENDIX_A_NAMES == tuple("ABCDEFGHIJKLMNPQRS")
    # `series` lists the same names as before the images were derived
    from qonsager import cli
    assert cli.SERIES_NAMES == tuple("ABCDEFHIJKLMNPQRS")


# The paper's bracket forms of E and L, which the code derives from D and K
def _written_out_E(env):
    return (S.bracket(env["Wm_s"], env["Gt_t"]).shift("s", 1)
            + S.bracket(env["Gt_s"], env["Wm_t"]).shift("t", 1))


def _written_out_L(env):
    return (S.q_bracket(env["G_s"], env["Wp_t"])
            - S.q_bracket(env["G_t"], env["Wp_s"])
            - S.q_bracket(env["G_s"], env["Wm_t"]).shift("t", 1)
            + S.q_bracket(env["G_t"], env["Wm_s"]).shift("s", 1))


@pytest.mark.parametrize("order", range(7))
def test_derived_E_and_L_equal_their_written_out_forms(order):
    env = S._gf_env(order)
    lookup = S._appendix_a(env)
    for name, written in (("E", _written_out_E), ("L", _written_out_L)):
        got, want = lookup(name), written(env)
        assert (got.vars, got.order, got.floor) == (want.vars, want.order,
                                                     want.floor), name
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


def test_prop41_extraction_catches_a_wrong_rule_body(monkeypatch):
    # negate the last term of every W+*G rule body; rule vi, its dagger
    # image, is built from the same terms.  The extraction rows read their
    # expectations off the rules, so rows iv and vi must fail, while the
    # decomposition rows, which use no rule, still pass
    rule_terms = rewrite._rule_terms

    def corrupted(a, b):
        terms = rule_terms(a, b)
        if (a.family, b.family) == (Family.Wplus, Family.G):
            c, w = terms[-1]
            terms = terms[:-1] + [(-c, w)]
        return terms

    monkeypatch.setattr(rewrite, "_rule_terms", corrupted)
    rewrite.clear_caches()
    try:
        rep = S.check_prop41_decompositions(3)
    finally:
        monkeypatch.undo()
        rewrite.clear_caches()
    failed = sorted(r.name for r in rep.failures())
    assert failed == ["extraction-iv", "extraction-vi"]
    assert all(r.passed for r in rep.results
               if r.name.startswith("decomposition-"))
    assert S.check_prop41_decompositions(3).passed


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


def test_a_window_error_names_the_first_offending_exponent():
    # (1, 5) breaks t's window before (7, 1) breaks s's, in insertion
    # order, though s comes first among the variables
    one = NCPoly.one()
    coeffs = {(0, 0): one, (1, 5): one, (7, 1): one}
    with pytest.raises(S.WindowError, match=r"exponent \(1, 5\) outside"):
        S.TruncSeries(("s", "t"), (3, 3), (0, 0), coeffs)


def test_a_zero_coefficient_outside_the_window_is_dropped():
    one, zero = NCPoly.one(), NCPoly.zero()
    a = S.TruncSeries(("s", "t"), (3, 3), (0, 0),
                      {(9, 0): zero, (0, 0): one, (1, -4): zero})
    assert a.coeffs == {(0, 0): one}


# `+`, `-` and `*` against a reference double loop over coefficients,
# summing the coefficients' terms one by one.
def _fold_terms(pairs):
    acc = {}
    for w, c in pairs:
        acc[w] = acc.get(w, qf.QZERO) + c
    return {w: c for w, c in acc.items() if c}


def _reference_sum(a, b, sign=1):
    order = tuple(map(min, a.order, b.order))
    floor = tuple(map(min, a.floor, b.floor))
    coeffs = {}
    for ts, s in ((a, 1), (b, sign)):
        for e, p in ts.coeffs.items():
            if all(x <= o for x, o in zip(e, order)):
                coeffs.setdefault(e, []).extend(
                    (w, c * s) for w, c in p.terms.items())
    return order, floor, coeffs


def _reference_product(a, b):
    order = tuple(min(oa + fb, ob + fa, S.INF)
                  for oa, ob, fa, fb in zip(a.order, b.order, a.floor, b.floor))
    floor = tuple(max(fa + fb, S.FLOOR_MIN) for fa, fb in zip(a.floor, b.floor))
    coeffs = {}
    for e1, p1 in a.coeffs.items():
        for e2, p2 in b.coeffs.items():
            e = tuple(i + j for i, j in zip(e1, e2))
            if all(x <= o for x, o in zip(e, order)):
                coeffs.setdefault(e, []).extend(
                    (u + w, c * d) for u, c in p1.terms.items()
                    for w, d in p2.terms.items())
    return order, floor, coeffs


def _assert_equals_reference(got, reference):
    order, floor, coeffs = reference
    assert (got.order, got.floor) == (order, floor)
    expected = {e: _fold_terms(pairs) for e, pairs in coeffs.items()}
    assert {e: p.terms for e, p in got.coeffs.items()} == {
        e: t for e, t in expected.items() if t}


_letters = [wm(0), wp(1), g_(1)]
_coeff_polys = st.lists(
    st.tuples(st.lists(st.sampled_from(_letters), max_size=2).map(tuple),
              st.one_of(st.integers(-3, 3).map(qf.q_pow),
                        st.integers(2, 3).map(qf.q_int),
                        st.integers(-3, 3).filter(bool).map(qf.of))),
    min_size=1, max_size=3).map(NCPoly).filter(bool)


@st.composite
def _series_pair(draw):
    vars = draw(st.sampled_from([("t",), ("s", "t")]))
    made = []
    for _ in range(2):
        floor = tuple(draw(st.integers(-1, 0)) for _ in vars)
        order = tuple(draw(st.integers(f, 2)) for f in floor)
        exps = st.tuples(*[st.integers(f, o) for f, o in zip(floor, order)])
        made.append((floor, order, draw(st.dictionaries(exps, _coeff_polys,
                                                        max_size=4))))
    (fa, oa, ca), (fb, ob, cb) = made
    # b repeats some of a's coefficients, negated or not, so that a + b or
    # a - b cancels there
    for e in draw(st.lists(st.sampled_from(sorted(ca)), max_size=2)) if ca else ():
        if all(f <= x <= o for x, f, o in zip(e, fb, ob)):
            cb[e] = -ca[e] if draw(st.booleans()) else ca[e]
    return (S.TruncSeries(vars, oa, fa, ca), S.TruncSeries(vars, ob, fb, cb))


@given(pair=_series_pair())
def test_sum_and_product_equal_the_reference_loop(pair):
    a, b = pair
    _assert_equals_reference(a + b, _reference_sum(a, b))
    _assert_equals_reference(a - b, _reference_sum(a, b, sign=-1))
    _assert_equals_reference(a * b, _reference_product(a, b))


def test_sum_and_product_keep_single_and_drop_cancelled_exponents():
    one, w = NCPoly.one(), NCPoly.gen(wm(0))
    a = S.TruncSeries(("t",), (3,), (0,), {(0,): one, (1,): w, (2,): one})
    b = S.TruncSeries(("t",), (3,), (0,), {(0,): w, (1,): -(w * w), (2,): one})
    c = S.TruncSeries(("t",), (2,), (0,), {(1,): -w, (2,): one})
    # a + c: t^0 is reached once, t^1 cancels, t^2 sums two; a * b: t^0 is
    # reached once, t^1 by two products that cancel, t^2 by three, t^3 by two
    total, product = a + c, a * b
    assert total.coeffs == {(0,): one, (2,): one + one}
    assert product.coeffs == {(0,): w, (2,): one + w - w * w * w,
                              (3,): w - w * w}
    assert (total.order, total.floor) == ((2,), (0,))
    assert (product.order, product.floor) == ((3,), (0,))


# `_products` against the route it replaced: one NCPoly product per pair of
# coefficients, `NCPoly.sum` per exponent, a scalar map per product, and
# `_pointwise` to add the products up.
def _pairwise_product(x, y):
    vars = S._vars(*x.vars, *y.vars)
    a, b = S._promote(x, vars), S._promote(y, vars)
    order = tuple(min(oa + fb, ob + fa, S.INF)
                  for oa, ob, fa, fb in zip(a.order, b.order, a.floor, b.floor))
    floor = tuple(max(fa + fb, S.FLOOR_MIN) for fa, fb in zip(a.floor, b.floor))
    groups = {}
    for e1, p1 in a.coeffs.items():
        for e2, p2 in b.coeffs.items():
            e = tuple(i + j for i, j in zip(e1, e2))
            if any(k > o for k, o in zip(e, order)):
                continue
            if any(k < S.FLOOR_MIN for k in e):
                raise S.FloorUnderflowError(f"product exponent {e} underflows")
            groups.setdefault(e, []).append(p1 * p2)
    return S.TruncSeries(a.vars, order, floor,
                         {e: NCPoly.sum(ps) for e, ps in groups.items()})


def _pairwise_products(triples):
    total = None
    for c, x, y in triples:
        xy = _pairwise_product(x, y)
        term = S.TruncSeries(xy.vars, xy.order, xy.floor,
                             {e: p * c for e, p in xy.coeffs.items()})
        total = term if total is None else S._pointwise(total, term, False)
    return total


def _outcome(fn, *args):
    """(vars, order, floor, coefficients) of fn(*args), or "underflow"."""
    try:
        ts = fn(*args)
    except S.FloorUnderflowError:
        return "underflow"
    return ts.vars, ts.order, ts.floor, ts.coeffs


# q^2 + 1 + q^-2 and its inverse are not factor-basis monomials
_scalars = st.one_of(st.integers(-2, 2).map(qf.q_pow),
                     st.integers(-3, 3).filter(bool).map(qf.of),
                     st.sampled_from([qf.q_int(3), qf.q_int(3).inverse(),
                                      qf.Q + qf.of(2), -qf.QONE]))
_scaled_polys = st.lists(
    st.tuples(st.lists(st.sampled_from(_letters), max_size=2).map(tuple),
              _scalars),
    min_size=1, max_size=3).map(NCPoly).filter(bool)


@st.composite
def _series(draw, vars=None):
    vars = vars or draw(st.sampled_from([("t",), ("s",), ("s", "t")]))
    floor = tuple(draw(st.integers(-2, 1)) for _ in vars)
    order = tuple(draw(st.one_of(st.integers(f, f + 3), st.just(S.INF)))
                  for f in floor)
    exps = st.tuples(*[st.integers(f, min(o, f + 3))
                       for f, o in zip(floor, order)])
    return S.TruncSeries(vars, order, floor,
                         draw(st.dictionaries(exps, _scaled_polys, max_size=4)))


@settings(deadline=None)
@given(triples=st.lists(st.tuples(_scalars, _series(), _series()),
                        min_size=1, max_size=3))
# the second product has the lower order and floor, so the sum's window
# is the first's cut to the second's
@example(triples=[
    (qf.QONE, S.gf(Family.Wminus, "t", 3), S.gf(Family.G, "t", 3)),
    (qf.q_int(3), S.gf(Family.Wplus, "t", 1).shift("t", -1),
     S.gf(Family.G, "s", 1))])
def test_products_equal_the_pairwise_route(triples):
    assert (_outcome(S._products, triples)
            == _outcome(_pairwise_products, triples))


@settings(deadline=None)
@given(a=_series(), b=_series())
def test_brackets_equal_their_product_forms(a, b):
    assert _outcome(S.bracket, a, b) == _outcome(lambda: a * b - b * a)
    assert _outcome(S.q_bracket, a, b) == _outcome(
        lambda: qf.Q * (a * b) - qf.q_pow(-1) * (b * a))


@settings(deadline=None)
@given(x=_series(), c=st.one_of(_scalars, st.just(qf.QZERO)))
def test_a_series_times_a_scalar_scales_each_coefficient(x, c):
    got = x * c
    assert (got.vars, got.order, got.floor) == (x.vars, x.order, x.floor)
    assert got.coeffs == {e: p * c for e, p in x.coeffs.items() if p * c}
    assert (c * x).coeffs == got.coeffs


def test_products_raise_an_underflow_their_window_drops():
    # x * y reaches t^-3 inside its own window; the sum's window, cut at
    # the other product's order, would drop it
    one = NCPoly.one()
    x = S.TruncSeries(("t",), (S.INF,), (-2,), {(-2,): one})
    y = S.TruncSeries(("t",), (S.INF,), (-1,), {(-1,): one})
    z = S.constant(1, ("t",)).shift("t", -2)
    short = S.TruncSeries(("t",), (-4,), (-4,), {})
    for triples in ([(qf.QONE, x, y)], [(qf.QONE, x, y), (qf.QONE, z, short)]):
        with pytest.raises(S.FloorUnderflowError):
            S._products(triples)


def _counted_builders(monkeypatch):
    counts = dict.fromkeys(S._APPENDIX_A_BUILDERS, 0)
    for name, build in S._APPENDIX_A_BUILDERS.items():
        def counted(env, name=name, build=build):
            counts[name] += 1
            return build(env)
        monkeypatch.setitem(S._APPENDIX_A_BUILDERS, name, counted)
    return counts


@pytest.mark.parametrize("check, order, built", [
    (S.check_gf_relations, 3, set(S._APPENDIX_A_BUILDERS)),
    (S.check_prop41_decompositions, 2, {"A", "C", "D", "J", "K", "P", "R"}),
])
def test_each_check_builds_each_named_series_once(monkeypatch, check, order,
                                                  built):
    counts = _counted_builders(monkeypatch)
    assert check(order).passed
    assert counts == {name: int(name in built) for name in counts}
    # the lookup lives for one call: a second call builds them again
    assert check(order).passed
    assert counts == {name: 2 * int(name in built) for name in counts}


def test_the_lookup_makes_each_sigma_image_from_its_source(monkeypatch):
    counts = _counted_builders(monkeypatch)
    lookup = S._appendix_a(S._gf_env(3))
    for name, (source, image) in S._IMAGES.items():
        got = lookup(name)
        assert got is lookup(name)
        want = S.appendixA_series(source, 3).map_coeffs(image)
        assert (got.vars, got.order, got.floor) == (want.vars, want.order,
                                                     want.floor), name
        assert got.coeffs == want.coeffs, name
    # each builder at the end of a chain once for the lookup, and once for
    # each appendixA_series call whose chain ends there
    ends = [_chain_end(source) for source, _ in S._IMAGES.values()]
    assert counts == {name: int(name in ends) + ends.count(name)
                      for name in counts}
    with pytest.raises(ValueError, match="unknown series name 'X'"):
        lookup("X")


def test_a_dropped_lookup_frees_its_series_without_the_collector(monkeypatch):
    # the lookup holds no reference to itself, so dropping it frees the
    # series it kept at once; a subclass of TruncSeries takes weak references
    class Tracked(S.TruncSeries):
        pass

    refs = []
    build_a = S._APPENDIX_A_BUILDERS["A"]

    def tracked_a(env):
        ts = build_a(env)
        kept = Tracked(ts.vars, ts.order, ts.floor, ts.coeffs)
        refs.append(weakref.ref(kept))
        return kept

    monkeypatch.setitem(S._APPENDIX_A_BUILDERS, "A", tracked_a)
    enabled = gc.isenabled()
    gc.disable()
    try:
        lookup = S._appendix_a(S._gf_env(2))
        assert not lookup("B").is_zero()   # B is built from A, which stays
        assert len(refs) == 1 and refs[0]() is not None
        del lookup
        assert refs[0]() is None
    finally:
        if enabled:
            gc.enable()
