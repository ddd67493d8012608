import copy
import operator
import pickle
import random
import weakref
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from qonsager import central, rewrite
from qonsager import qfield as qf

try:
    import sympy
except ImportError:  # a test-only oracle, not a dependency
    sympy = None


def sample_points(seed=0, n=5):
    rng = random.Random(seed)
    pts = []
    while len(pts) < n:
        x = Fraction(rng.randint(-40, 40), rng.randint(1, 40))
        if x not in (0, 1, -1):
            pts.append(x)
    return pts


def test_add_q_plus_inverse():
    got = qf.Q + qf.q_pow(-1)
    assert got.numerator() == (1, 0, 1)
    assert got.denominator() == (0, 1)


def test_mul_difference_of_squares():
    got = (qf.Q - qf.q_pow(-1)) * (qf.Q + qf.q_pow(-1))
    assert got.numerator() == (-1, 0, 0, 0, 1)
    assert got.denominator() == (0, 0, 1)


def test_div_example_matches_numeric_oracle():
    # oracle: evaluate both sides at 5 random rational points
    lhs = (qf.q_pow(2) - qf.q_pow(-2)) / (qf.Q - qf.q_pow(-1))
    expected = qf.Q + qf.q_pow(-1)
    for x in sample_points(seed=1):
        num = (x ** 2 - x ** -2) / (x - 1 / x)
        assert lhs.evaluate(x) == num
        assert expected.evaluate(x) == num
    assert lhs == expected


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        qf.Q / qf.QZERO
    with pytest.raises(ZeroDivisionError):
        qf.QZERO.inverse()


def test_q_int_small_values():
    assert qf.q_int(0).is_zero()
    assert qf.q_int(2) == qf.Q + qf.q_pow(-1)
    assert qf.q_int(-1) == qf.of(-1)
    assert qf.q_int(1) == qf.QONE


def test_q_int_three_by_synthetic_division():
    # oracle: divide q^6 - 1 by q^2 - 1 with plain integer synthetic division
    num = [-1, 0, 0, 0, 0, 0, 1]
    den = [-1, 0, 1]
    quo = [0] * 5
    rem = list(num)
    for i in range(4, -1, -1):
        quo[i] = rem[i + 2]
        rem[i + 2] -= quo[i]
        rem[i] -= -quo[i]
    assert all(c == 0 for c in rem)
    assert quo == [1, 0, 1, 0, 1]
    # so [3]_q = (q^4 + q^2 + 1)/q^2
    got = qf.q_int(3)
    assert got.numerator() == (1, 0, 1, 0, 1)
    assert got.denominator() == (0, 0, 1)


@pytest.mark.parametrize("n", range(-12, 13))
def test_q_int_definition_symbolically(n):
    lhs = qf.q_int(n) * (qf.Q - qf.q_pow(-1))
    assert lhs == qf.q_pow(n) - qf.q_pow(-n)


def test_rho_factorizations():
    rho = qf.RHO
    assert rho == -((qf.Q - qf.q_pow(-1)) ** 2) * ((qf.Q + qf.q_pow(-1)) ** 2)
    assert rho == -(qf.q_pow(2) - qf.q_pow(-2)) * (qf.q_pow(2) - qf.q_pow(-2))


def test_g0_value_and_identities():
    g0 = qf.G0
    assert g0 == -(qf.Q - qf.q_pow(-1)) * (qf.Q + qf.q_pow(-1)) ** 2
    ratio = g0 / (qf.q_pow(2) - qf.q_pow(-2)) ** 2
    assert ratio == -(qf.Q - qf.q_pow(-1)).inverse()
    assert g0 * g0 / (qf.q_pow(2) - qf.q_pow(-2)) ** 2 == qf.q_int(2) ** 2


def _named_scalars():
    """(name, value, closed form at q0) for each scalar built once."""
    def qm(x):
        return x - 1 / x

    def q2m(x):
        return x ** 2 - x ** -2

    return [
        ("qfield.QM", qf.QM, qm),
        ("qfield.Q2M", qf.Q2M, q2m),
        ("qfield.RHO", qf.RHO, lambda x: -q2m(x) ** 2),
        ("qfield.G0", qf.G0, lambda x: -qm(x) * (x + 1 / x) ** 2),
        ("rewrite.E_II", rewrite.E_II,
         lambda x: 1 / (q2m(x) * (x + 1 / x) ** 2)),
        ("rewrite.C_III", rewrite.C_III, lambda x: q2m(x) ** 3),
        ("rewrite.C_IV", rewrite.C_IV, lambda x: x * qm(x)),
        ("rewrite.C_V", rewrite.C_V, lambda x: qm(x) / x),
        ("central.INV_Q2M_SQ", central.INV_Q2M_SQ, lambda x: 1 / q2m(x) ** 2),
    ]


def test_named_scalars_match_their_closed_forms_and_outlive_clear_caches():
    named = _named_scalars()
    for q0 in sample_points(seed=3, n=6) + [Fraction(2), Fraction(-1, 3)]:
        for name, value, closed in named:
            assert value.evaluate(q0) == closed(q0), (name, q0)
    rewrite.clear_caches()
    for (name, value, _), (_, again, _) in zip(named, _named_scalars()):
        # the same object, and still the one live value for its fields
        assert value is again and qf._VALUES[_fields(value)] is value, name


def test_operators_match_pointwise_arithmetic():
    # one operand of each shape: non-monomial U, monomial, V != 1
    # and rational prefactors whose product and sum need reducing
    a, b = qf.q_int(3), qf.q_pow(-2)
    c = (qf.q_pow(2) + qf.q_pow(-2)).inverse()
    d, e = qf.of(Fraction(2, 3)) * b, qf.of(Fraction(9, 4)) * b
    points = sample_points(seed=3)
    for left, right in ((a, b), (b, a), (a, c), (c, b), (c, c), (d, e)):
        for got, op in ((left + right, Fraction.__add__),
                        (left - right, Fraction.__sub__),
                        (left * right, Fraction.__mul__),
                        (left / right, Fraction.__truediv__)):
            assert got == qf.from_num_den(got.numerator(), got.denominator())
            for x in points:
                assert got.evaluate(x) == op(left.evaluate(x), right.evaluate(x))


def test_normalization_is_stable_under_unreduced_input():
    # (q^4 - 1)/(q^2 - 1) must normalize to q^2 + 1
    x = qf.from_num_den((-1, 0, 0, 0, 1), (-1, 0, 1))
    assert x == qf.q_pow(2) + qf.QONE
    # building the same value along different routes gives identical forms
    y = (qf.q_pow(4) - qf.QONE) / (qf.q_pow(2) - qf.QONE)
    assert x == y and hash(x) == hash(y)


def _leaf(rng, points):
    """A random leaf value and its values at the points, computed directly."""
    choice = rng.randrange(7)
    if choice == 0:
        k = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        return qf.of(k), [k for x in points]
    if choice == 1:
        k = rng.randint(-4, 4)
        return qf.q_pow(k), [x ** k for x in points]
    if choice == 2:
        n = rng.randint(-5, 5)
        return qf.q_int(n), [(x ** n - x ** -n) / (x - 1 / x) for x in points]
    if choice == 3:
        n = rng.choice([-4, -3, -2, -1, 1, 2, 3, 4])
        return (qf.q_int(n).inverse(),
                [(x - 1 / x) / (x ** n - x ** -n) for x in points])
    if choice == 4:
        k = rng.randint(1, 3)
        return ((qf.q_pow(k) + qf.q_pow(-k)).inverse(),
                [1 / (x ** k + x ** -k) for x in points])
    if choice == 5:
        return qf.q_int(3), [x ** 2 + 1 + x ** -2 for x in points]
    return qf.RHO, [-((x ** 2 - x ** -2) ** 2) for x in points]


def _random_tree(rng, depth, points, nodes):
    """A random expression; every (node, values at points) goes to nodes."""
    if depth == 0 or rng.random() < 0.3:
        node = _leaf(rng, points)
        nodes.append(node)
        return node
    left, lv = _random_tree(rng, depth - 1, points, nodes)
    right, rv = _random_tree(rng, depth - 1, points, nodes)
    op = rng.choice(["add", "sub", "mul", "div", "cancel"])
    if op == "div" and 0 in rv:
        op = "add"
    if op == "add":
        node = left + right, [p + r for p, r in zip(lv, rv)]
    elif op == "sub":
        node = left - right, [p - r for p, r in zip(lv, rv)]
    elif op == "mul":
        node = left * right, [p * r for p, r in zip(lv, rv)]
    elif op == "div":
        node = left / right, [p / r for p, r in zip(lv, rv)]
    else:
        # x + (-x) must cancel to exactly zero before right is added
        zero = left + (-left)
        assert zero == qf.QZERO
        node = zero + right, rv
    nodes.append(node)
    return node


def test_random_expression_evaluation_oracle():
    rng = random.Random(7)
    points = sample_points(seed=2)
    for _ in range(60):
        nodes = []
        _random_tree(rng, 4, points, nodes)
        for node, values in nodes:
            # from_num_den re-normalizes through the general path
            renum = qf.from_num_den(node.numerator(), node.denominator())
            assert renum == node and hash(renum) == hash(node)
            assert [node.evaluate(x) for x in points] == values


def test_denominator_normalization_invariants():
    rng = random.Random(11)
    points = sample_points(seed=4)
    for _ in range(100):
        tree, _ = _random_tree(rng, 3, points, [])
        if tree.is_zero():
            continue
        den = tree.denominator()
        assert den[-1] > 0
        # reduced pair: no common polynomial or integer content
        num = tree.numerator()
        g = qf.p_gcd(num, den)
        assert len(g) == 1
        from math import gcd
        assert gcd(qf.p_content(num), qf.p_content(den)) == 1


@pytest.mark.parametrize("f,expected", [
    ((3,), (1,)), ((-5,), (1,)), ((0, -2, 4), (0, -1, 2)),
    ((6, 0, -9), (-2, 0, 3)), ((-4, -6), (2, 3)), ((1, 1), (1, 1)),
    (qf.P_ZERO, qf.P_ZERO)])
def test_gcd_with_zero_is_the_other_argument_made_primitive(f, expected):
    assert qf.p_gcd(qf.P_ZERO, f) == expected
    assert qf.p_gcd(f, qf.P_ZERO) == expected


def _strip_by_division(u, f):
    # reference: repeated trial division
    n = 0
    while len(u) >= len(f):
        d = qf.p_div_exact(u, f)
        if d is None:
            break
        u, n = d, n + 1
    return u, n


@pytest.mark.parametrize("f", [qf.FM, qf.FP, qf.F2], ids=["q-1", "q+1", "q^2+1"])
@given(coeffs=st.lists(st.integers(-6, 6), min_size=1, max_size=10),
       power=st.integers(0, 3))
def test_strip_root_test_matches_trial_division(f, coeffs, power):
    u = qf.p_trim(coeffs)
    assume(u)
    for _ in range(power):
        u = qf.p_mul(u, f)
    assert qf._strip(u, f) == _strip_by_division(u, f)


# -- field axioms as properties ------------------------------------------

AXIOM_POINTS = (Fraction(3, 2), Fraction(-5, 7))

# Leaves cover every shape the operators branch on: factor-basis monomials
# (q^k and rationals), U != 1 ([n]q) and V != 1 ((q^k + q^-k)^-1).
_leaves = st.one_of(
    st.integers(-6, 6).map(qf.q_pow),
    st.builds(Fraction, st.integers(-9, 9), st.integers(1, 5)).map(qf.of),
    st.integers(-5, 5).map(qf.q_int),
    st.integers(1, 3).map(lambda k: (qf.q_pow(k) + qf.q_pow(-k)).inverse()),
)


def _combine(args):
    x, op, y = args
    return x + y if op == "+" else x - y if op == "-" else x * y


_values = st.recursive(
    _leaves,
    lambda inner: st.tuples(inner, st.sampled_from("+-*"), inner).map(_combine),
    max_leaves=3)


def _values_at(x):
    return [x.evaluate(t) for t in AXIOM_POINTS]


def _assert_canonical(got, expected, points=AXIOM_POINTS):
    """got is in canonical form and takes the expected values at points."""
    num, den = got.numerator(), got.denominator()
    assert got == qf.from_num_den(num, den)
    assert got == qf.from_num_den(tuple(-c for c in num),
                                  tuple(-c for c in den))
    assert [got.evaluate(t) for t in points] == expected


@given(x=_values, y=_values, z=_values)
def test_addition_is_commutative_and_associative(x, y, z):
    xv, yv, zv = _values_at(x), _values_at(y), _values_at(z)
    assert x + y == y + x
    left, right = (x + y) + z, x + (y + z)
    assert left == right
    _assert_canonical(x + y, [a + b for a, b in zip(xv, yv)])
    _assert_canonical(left, [a + b + c for a, b, c in zip(xv, yv, zv)])


@given(x=_values, y=_values, z=_values)
def test_multiplication_is_commutative_and_associative(x, y, z):
    xv, yv, zv = _values_at(x), _values_at(y), _values_at(z)
    assert x * y == y * x
    left, right = (x * y) * z, x * (y * z)
    assert left == right
    _assert_canonical(x * y, [a * b for a, b in zip(xv, yv)])
    _assert_canonical(left, [a * b * c for a, b, c in zip(xv, yv, zv)])


@given(x=_values, y=_values, z=_values)
def test_multiplication_distributes_over_addition(x, y, z):
    xv, yv, zv = _values_at(x), _values_at(y), _values_at(z)
    left, right = x * (y + z), x * y + x * z
    assert left == right
    _assert_canonical(left, [a * (b + c) for a, b, c in zip(xv, yv, zv)])


# A nonzero x may vanish at an axiom point ((2q - 3)/2 does at 3/2), so the
# inverse is checked at the first two points of this list where x is not 0.
INVERSE_POINTS = AXIOM_POINTS + (Fraction(2, 3), Fraction(7, 4),
                                 Fraction(-4, 3), Fraction(5, 9),
                                 Fraction(-9, 2), Fraction(11, 5))


@example(x=qf.Q - qf.of(Fraction(3, 2)))
@given(x=_values)
def test_additive_and_multiplicative_inverses(x):
    assert x + (-x) == qf.QZERO
    _assert_canonical(-x, [-a for a in _values_at(x)])
    assume(not x.is_zero())
    assert x * x.inverse() == qf.QONE
    points = [t for t in INVERSE_POINTS if x.evaluate(t)][:2]
    assert len(points) == 2
    _assert_canonical(x.inverse(), [1 / x.evaluate(t) for t in points], points)


def _fields(x):
    return (x.p, x.r, x.a, x.b, x.c, x.d, x.u, x.v)


def _qdot(cs, xs):
    """sum(c * x) over zip(cs, xs), accumulated in one `lincomb` call."""
    return qf.lincomb([(c, {0: x}) for c, x in zip(cs, xs)
                       if c.p and x.p]).get(0, qf.QZERO)


def _fold(cs, xs):
    s = qf.QZERO
    for c, x in zip(cs, xs):
        s = s + c * x
    return s


_V2 = (qf.q_pow(2) + qf.q_pow(-2)).inverse()
_V3 = (qf.q_pow(3) + qf.q_pow(-3)).inverse()
_HALF = qf.of(Fraction(1, 2))
_THIRD = qf.of(Fraction(-1, 3))


def _dot_lists(pairs, mirror):
    # mirror appends the negation of every term: the whole list cancels
    if mirror:
        pairs = pairs + [(c, -x) for c, x in pairs]
    return [c for c, _ in pairs], [x for _, x in pairs]


# hand-picked lists: cancellation of every term, monomials of one shape with
# different r's, two distinct V != 1 leaves, U != 1 terms that cancel beside
# others, and shapes whose sum is zero only after canonicalization
_DOT_EXAMPLES = [
    ([(qf.QONE, _V2), (qf.QONE, -_V2)], False),
    ([(_HALF, qf.q_int(2))], True),
    ([(_HALF, qf.q_pow(2)), (_THIRD, qf.q_pow(2)), (qf.QONE, qf.Q)], False),
    ([(_HALF, _V2), (_THIRD, _V3), (qf.q_int(2), _V2 * _V3)], False),
    ([(_V2, qf.q_int(3)), (_HALF, qf.q_int(2)), (-_V2, qf.q_int(3))], False),
    ([(qf.Q, qf.QONE), (qf.QONE, qf.QONE), (-qf.QONE, qf.q_int(2) * qf.Q)],
     False),
    # expansions past _MEMO_CAP: [40]q has 77 coefficients in U, and the
    # two shapes meet over a numerator of about 80
    ([(qf.QONE, qf.q_int(40)), (_HALF, qf.Q), (qf.q_int(3), qf.q_int(37))],
     False),
    ([(qf.q_pow(-3), qf.q_int(40)), (qf.QONE, _V2 * qf.q_int(33))], True),
    # V != 1 beside U != 1 and monomials, and two V's beside their product
    ([(qf.QONE, _V2), (_THIRD, qf.q_int(3)), (qf.Q, qf.QONE)], False),
    ([(_HALF, _V2), (qf.QONE, _V3), (qf.Q - qf.QONE, _V2 * _V3),
      (qf.q_int(2), qf.QONE)], False),
    ([(qf.QONE, _V2), (qf.QONE, qf.q_int(4) * _V3)], True),
    # sums that cancel down to one live shape: a V != 1 one, and a monomial
    # beside cancelled V != 1 and U != 1 groups
    ([(qf.QONE, _V2), (qf.QONE, _V3), (-qf.QONE, _V3)], False),
    ([(qf.QONE, qf.Q), (qf.QONE, _V2), (_HALF, qf.q_int(2)), (-qf.QONE, _V2),
      (-_HALF, qf.q_int(2))], False),
    # a sum of several shapes that cancels to zero
    ([(qf.QONE, qf.q_int(40)), (qf.q_int(2), _V2), (qf.QONE, -qf.q_int(40)),
      (-qf.q_int(2), _V2)], False),
]

# the sums are also evaluated at three rational points, an oracle that
# shares no code with `_sum` (the binary fold `_fold` adds through it)
_DOT_POINTS = AXIOM_POINTS + (Fraction(7, 3),)


def _dot_values(cs, xs):
    return [sum((c.evaluate(t) * x.evaluate(t) for c, x in zip(cs, xs)),
                Fraction(0)) for t in _DOT_POINTS]


def _dot_cases(test=None, **extra):
    """Run test on lists of 0-6 random terms and on the hand-picked lists;
    extra maps further arguments to (strategy, value in the examples)."""
    if test is None:
        return lambda t: _dot_cases(t, **extra)
    fixed = {name: value for name, (_, value) in extra.items()}
    for pairs, mirror in _DOT_EXAMPLES:
        test = example(pairs=pairs, mirror=mirror, **fixed)(test)
    return given(pairs=st.lists(st.tuples(_values, _values), max_size=6),
                 mirror=st.booleans(),
                 **{name: strategy for name, (strategy, _) in extra.items()}
                 )(test)


@_dot_cases
def test_qdot_equals_binary_fold(pairs, mirror):
    cs, xs = _dot_lists(pairs, mirror)
    got = _qdot(cs, xs)
    assert _fields(got) == _fields(_fold(cs, xs))
    if mirror:
        assert _fields(got) == _fields(qf.QZERO)
    _assert_canonical(got, _dot_values(cs, xs), _DOT_POINTS)


# one factor-basis monomial q^a (q-1)^b (q+1)^c (q^2+1)^d times a nonzero int
_scales = st.builds(
    lambda k, a, b, c, d: qf._make(k, 1, a, b, c, d, qf.P_ONE, qf.P_ONE),
    st.integers(-6, 6).filter(bool), st.integers(-4, 4), st.integers(-3, 3),
    st.integers(-3, 3), st.integers(-2, 2))


@_dot_cases(scale=(_scales, qf._make(-3, 1, 2, 1, 0, 1, qf.P_ONE, qf.P_ONE)))
def test_qdot_of_a_rescaled_list_equals_the_fold(pairs, mirror, scale):
    # the rescaled list meets in `_sum` with other absolute exponents and
    # another content, so it may hit the `_shape` entry of the first call
    cs, xs = _dot_lists(pairs, mirror)
    first = _qdot(cs, xs)
    assert _fields(first) == _fields(_fold(cs, xs))
    assert [first.evaluate(t) for t in _DOT_POINTS] == _dot_values(cs, xs)
    scaled = [c * scale for c in cs]
    got = _qdot(scaled, xs)
    assert _fields(got) == _fields(_fold(scaled, xs))
    assert [got.evaluate(t) for t in _DOT_POINTS] == _dot_values(scaled, xs)
    assert got == first * scale


def test_qdot_memo_is_keyed_by_relative_shape():
    xs = [qf.q_pow(2), qf.Q - qf.QONE, qf.q_int(3), _V2]
    cs = [qf.of(2), qf.of(-4), qf.of(6), qf.of(2)]
    scale = qf._make(3, 1, 5, 1, 2, 0, qf.P_ONE, qf.P_ONE)
    qf.clear_memos()   # the sum memo too, so both sums reach `_shape`
    first = _qdot(cs, xs)
    got = _qdot([c * scale for c in cs], xs)
    assert got == first * scale
    info = qf._shape.cache_info()
    assert (info.misses, info.hits) == (1, 1)


# lincomb over maps with a few keys; the key "z" also receives c * x and
# c * (-x) for each pair of `cancel`, so its sum is zero
_nonzero = _values.filter(bool)
_terms = st.dictionaries(st.sampled_from("abc"), _nonzero, max_size=3)


@given(pairs=st.lists(st.tuples(st.one_of(_scales, _nonzero), _terms),
                      max_size=6),
       cancel=st.lists(st.tuples(_nonzero, _nonzero), max_size=2),
       rnd=st.randoms(use_true_random=False))
def test_lincomb_equals_the_binary_fold(pairs, cancel, rnd):
    scaled = (pairs + [(c, {"z": x}) for c, x in cancel]
              + [(c, {"z": -x}) for c, x in cancel])
    fold = {}
    for c, t in scaled:
        for key, x in t.items():
            fold[key] = fold.get(key, qf.QZERO) + c * x
    expected = {key: _fields(s) for key, s in fold.items() if s}
    assert "z" not in expected

    def fields(acc):
        return {key: _fields(s) for key, s in acc.items()}

    qf.clear_memos()
    assert fields(qf.lincomb(scaled)) == expected   # cold
    size = len(qf._SUMS)
    assert fields(qf.lincomb(scaled)) == expected   # warm: memo hits
    assert len(qf._SUMS) == size
    qf.clear_memos()
    assert fields(qf.lincomb(scaled)) == expected
    rnd.shuffle(scaled)
    assert fields(qf.lincomb(scaled)) == expected


def test_sums_past_a_full_memo_are_computed_but_not_stored(monkeypatch):
    qf.clear_memos()
    monkeypatch.setattr(qf, "_SUMS_SIZE", 0)
    cs, xs = [qf.QONE, _HALF, qf.Q], [qf.q_int(3), _V2, qf.q_int(3)]
    assert _fields(_qdot(cs, xs)) == _fields(_fold(cs, xs))
    assert qf._SUMS == {}


def test_products_past_a_full_memo_are_computed_but_not_stored(monkeypatch):
    cs, xs = [qf.QONE, _HALF, qf.Q], [qf.q_int(3), _V2, qf.q_int(3)]
    expected = _fields(_fold(cs, xs))
    qf.clear_memos()
    monkeypatch.setattr(qf, "_PRODUCTS_SIZE", 0)
    assert _fields(_qdot(cs, xs)) == expected
    assert qf._PRODUCTS == {}
    monkeypatch.undo()   # the products of _HALF and Q are stored again
    assert _fields(_qdot(cs, xs)) == expected
    assert {c: len(t) for c, t in qf._PRODUCTS.items()} == {_HALF: 1, qf.Q: 1}
    assert qf._products_stored == 2


def _sympy_value(x, q):
    num, den = x.numerator(), x.denominator()
    return (sum(c * q ** i for i, c in enumerate(num))
            / sum(c * q ** i for i, c in enumerate(den)))


@pytest.mark.skipif(sympy is None, reason="sympy is a test-only oracle")
@settings(max_examples=40, deadline=None)
@_dot_cases
def test_qdot_matches_sympy(pairs, mirror):
    cs, xs = _dot_lists(pairs, mirror)
    q = sympy.Symbol("q")
    got = sympy.cancel(_sympy_value(_qdot(cs, xs), q))
    expected = sympy.cancel(sum((_sympy_value(c, q) * _sympy_value(x, q)
                                 for c, x in zip(cs, xs)), sympy.Integer(0)))
    assert got == expected


_BINARY_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul,
               "/": operator.truediv}


@pytest.mark.skipif(sympy is None, reason="sympy is a test-only oracle")
@settings(max_examples=40, deadline=None)
@given(x=_values, y=_values, op=st.sampled_from(sorted(_BINARY_OPS)))
def test_binary_operators_match_sympy(x, y, op):
    assume(op != "/" or not y.is_zero())
    q = sympy.Symbol("q")
    got = sympy.cancel(_sympy_value(_BINARY_OPS[op](x, y), q))
    expected = sympy.cancel(_BINARY_OPS[op](_sympy_value(x, q),
                                            _sympy_value(y, q)))
    assert got == expected


# Raw (U, V) pairs for `_canon`: a random core times a common factor, powers
# of the basis factors and of q, a content and a sign, so every step of
# `_shape` has work to do.
_BASIS = (qf.FM, qf.FP, qf.F2)
_cores = st.lists(st.integers(-5, 5), min_size=1, max_size=5).map(
    qf.p_trim).filter(bool)


@st.composite
def _raw_pair(draw):
    common = draw(_cores)
    out = []
    for _ in range(2):
        f = qf.p_mul(draw(_cores), common)
        for basis in _BASIS:
            for _ in range(draw(st.integers(0, 2))):
                f = qf.p_mul(f, basis)
        f = (0,) * draw(st.integers(0, 3)) + f
        out.append(qf.p_scale(f, draw(st.sampled_from([1, 2, 6, -1, -4]))))
    return tuple(out)


def _unmemoized_canon(*args):
    memo = qf._shape
    qf._shape = memo.__wrapped__
    try:
        return qf._canon(*args)
    finally:
        qf._shape = memo


@settings(deadline=None)
@given(uv=_raw_pair(), p=st.integers(-12, 12).filter(bool),
       r=st.integers(1, 12), e=st.lists(st.integers(-3, 3), min_size=4,
                                        max_size=4))
def test_memoized_canon_equals_unmemoized(uv, p, r, e):
    u, v = uv
    args = (p, r, *e, u, v)
    expected = _fields(_unmemoized_canon(*args))
    assert _fields(qf._canon(*args)) == expected
    got = qf._canon(*args)   # a memo hit
    assert _fields(got) == expected
    # the form is canonical and takes the value of its input
    assert got.u[-1] > 0 and got.u[0] != 0 and qf.p_content(got.u) == 1
    assert got.v[-1] > 0 and got.v[0] != 0 and qf.p_content(got.v) == 1
    for basis in _BASIS:
        assert not qf._divides(basis, got.u)
        assert not qf._divides(basis, got.v)
    assert len(qf.p_gcd(got.u, got.v)) == 1
    for t in INVERSE_POINTS:
        if qf.p_eval(v, t):
            scale = Fraction(p, r) * t ** e[0] * (t - 1) ** e[1]
            scale *= (t + 1) ** e[2] * (t * t + 1) ** e[3]
            assert got.evaluate(t) == scale * qf.p_eval(u, t) / qf.p_eval(v, t)


def test_values_are_immutable():
    qf.clear_memos()
    x = qf.q_int(3) * _V2   # a value never rendered
    # the text slot refuses too, before the first render and after it
    for rendered in (False, True):
        if rendered:
            text = qf.scalar_text(x)
        with pytest.raises(AttributeError):
            x._text = "(1)"
        with pytest.raises(AttributeError):
            delattr(x, "_text")
        assert hasattr(x, "_text") is rendered
    assert x._text == text == _reference_scalar_text(x)
    assert type(x) is qf.QRat and not hasattr(x, "__dict__")
    for name in ("p", "r", "a", "b", "c", "d", "u", "v"):
        with pytest.raises(AttributeError):
            setattr(x, name, getattr(x, name))
        with pytest.raises(AttributeError):
            delattr(x, name)
    with pytest.raises(AttributeError):
        x.extra = 1
    assert x == qf.q_int(3) * _V2


@pytest.mark.parametrize("x", [
    qf.QZERO, qf.q_pow(-3) * qf.of(Fraction(5, 2)), qf.q_int(3),
    (qf.q_pow(2) + qf.q_pow(-2)).inverse(), qf.q_int(40)],
    ids=["zero", "monomial", "[3]q", "V!=1", "above the memo cap"])
def test_pickle_round_trip(x):
    for y in (pickle.loads(pickle.dumps(x)), copy.deepcopy(x), copy.copy(x)):
        assert y is x
        with pytest.raises(AttributeError):
            y.p = 0


# -- the value table -----------------------------------------------------------
# Every live value is one object (see `_make`), so identity is equality and
# the hash is the identity hash.

@given(x=_values, y=_values)
def test_two_values_are_equal_iff_they_are_one_object(x, y):
    assert (x == y) == (x is y) == (_fields(x) == _fields(y))
    assert (x != y) == (x is not y)
    assert (hash(x) == hash(y)) == (x is y)


@given(x=_values, k=st.builds(Fraction, st.integers(-9, 9), st.integers(1, 5)))
def test_a_value_rebuilt_from_its_fields_is_equal(x, k):
    # a live value comes back as itself: through the table, the dense
    # pair, pickling and copying, and from emptied memos
    rebuilt = [qf._make(*_fields(x)),
               qf.from_num_den(x.numerator(), x.denominator()),
               pickle.loads(pickle.dumps(x)), copy.deepcopy(x)]
    qf.clear_memos()
    rebuilt.append(qf._make(*_fields(x)))
    for y in rebuilt:
        assert y is x
    # an embedded Fraction or int, however it is built
    y = qf.of(k)
    assert qf.of(Fraction(k.numerator, k.denominator)) is y
    assert pickle.loads(pickle.dumps(y)) is y and qf._co(k) is y
    assert y == k and k == y
    if k.denominator == 1:
        assert qf.of(k.numerator) is y and y == k.numerator


def test_values_small_enough_for_the_memo_are_shared():
    x = qf.q_int(3) * _V2
    assert len(x.u) + len(x.v) <= qf._MEMO_CAP
    assert qf._make(*_fields(x)) is x
    assert qf.from_num_den(x.numerator(), x.denominator()) is x
    assert qf.q_pow(7) is qf.q_pow(7)
    assert (qf.Q - 1) * (qf.Q + 1) is qf.q_pow(2) - 1
    # the module constants outlive emptied memos: a computed 1 is QONE
    qf.clear_memos()
    assert _V2 * _V2.inverse() is qf.QONE
    assert qf.q_pow(3) * qf.q_pow(-2) is qf.Q


def test_values_of_every_size_are_interned():
    big = qf.q_int(40)
    assert len(big.u) + len(big.v) > qf._MEMO_CAP
    assert qf._make(*_fields(big)) is big
    assert qf.q_int.__wrapped__(40) is big
    assert qf._VALUES[_fields(big)] is big
    # no cap: the table is a WeakValueDictionary, never full
    assert type(qf._VALUES) is weakref.WeakValueDictionary
    assert not hasattr(qf, "_VALUES_SIZE")
    huge = qf.q_pow(5000) - qf.q_pow(-5000)
    assert len(huge.u) > 9000 and qf._VALUES[_fields(huge)] is huge


def test_a_value_with_no_references_leaves_the_table():
    fields = (7, 11, 123, 4, 0, 1, qf.P_ONE, qf.P_ONE)
    assert fields not in qf._VALUES   # nothing else builds this value
    x = qf._make(*fields)
    ref = weakref.ref(x)
    assert qf._VALUES[fields] is x and fields in qf._VALUE_REFS
    del x
    assert ref() is None
    assert fields not in qf._VALUES and fields not in qf._VALUE_REFS
    # rebuilt, it is a new object, interned again
    y = qf._make(*fields)
    assert _fields(y) == fields and qf._VALUES[fields] is y


def test_the_hash_is_the_identity_hash():
    assert qf.QRat.__hash__ is object.__hash__
    assert qf.QRat.__eq__ is not object.__eq__   # ints and Fractions embed
    assert "_hash" not in qf._Slots.__slots__
    shared, big = qf.q_int(3) * _V2, qf.q_int(40)
    values = [shared, big]
    values += [pickle.loads(pickle.dumps(x)) for x in values]
    values += [qf._make(*_fields(x)) for x in values]
    for x in values:
        assert hash(x) == object.__hash__(x)
        for y in values:
            assert (x == y) == (x is y) == (_fields(x) == _fields(y))
    assert len(set(values)) == len({id(x) for x in values}) == 2


# The renderer as it was before it read its text off the factored form:
# dense numerator and denominator tuples, zero-padded for the power of q.
# It is the reference the current one must match byte for byte.
def _reference_poly_text(f):
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


def _reference_num_den(x):
    num = qf.p_scale(qf.p_mul(qf._mono(max(x.a, 0), max(x.b, 0), max(x.c, 0),
                                       max(x.d, 0)), x.u), x.p)
    den = qf.p_scale(qf.p_mul(qf._mono(max(-x.a, 0), max(-x.b, 0),
                                       max(-x.c, 0), max(-x.d, 0)), x.v), x.r)
    return num, den


def _reference_scalar_text(x):
    num, den = _reference_num_den(x)
    if den == qf.P_ONE:
        return f"({_reference_poly_text(num)})"
    if den[-1] == 1 and not any(den[:-1]):
        return f"({_reference_poly_text(num)})*q^-{len(den) - 1}"
    return f"({_reference_poly_text(num)})/({_reference_poly_text(den)})"


@given(x=_values, k=st.builds(Fraction, st.integers(-9, 9), st.integers(1, 5)))
def test_scalar_text_matches_reference_and_parses_back(x, k):
    from qonsager import cli
    from qonsager.words import NCPoly

    for y in (x, x * qf.of(k)):
        assert (y.numerator(), y.denominator()) == _reference_num_den(y)
        text = qf.scalar_text(y)
        assert text == _reference_scalar_text(y)
        assert cli.parse_to_poly(text) == NCPoly.scalar(y)


# -- the text slot -------------------------------------------------------------
# scalar_text keeps each value's text on the value: the slot is a property of
# the one object, never of its equality, hash or pickled form.

def _fresh(fields):
    """The value with these fields, built as a new object: the memos are
    emptied, and nothing else may still hold it."""
    qf.clear_memos()
    assert fields not in qf._VALUES
    return qf._make(*fields)


@given(x=_nonzero)
def test_a_stored_text_is_the_reference_text(x):
    # hypothesis keeps the values it draws alive, so the value rendered here
    # is x times 7919, which nothing else holds: its first render is here
    fields = _fields(x * 7919)
    z = _fresh(fields)
    assert not hasattr(z, "_text")
    expected = _reference_scalar_text(z)
    h = hash(z)
    assert qf.scalar_text(z) == expected
    assert z._text == expected
    assert qf.scalar_text(z) == expected   # read back from the slot
    # rendering moves neither the hash nor equality
    assert hash(z) == h and z == qf._make(*fields) and z != z + qf.QONE
    # pickling returns the live value, text and all
    assert pickle.loads(pickle.dumps(z)) is z
    # a value rebuilt after its last reference went is a new object with
    # no text, and renders the same
    ref = weakref.ref(z)
    del z
    assert ref() is None
    again = _fresh(fields)
    assert not hasattr(again, "_text")
    assert qf.scalar_text(again) == expected


def test_a_value_is_rendered_once(monkeypatch):
    calls = []

    def counted(f, shift=0):
        calls.append(f)
        return poly_text(f, shift)

    poly_text = qf.poly_text
    monkeypatch.setattr(qf, "poly_text", counted)
    x = _fresh(_fields(qf.q_int(5) * _V3))   # nothing else holds it
    text = qf.scalar_text(x)   # numerator and denominator: two calls
    assert len(calls) == 2
    assert qf.scalar_text(x) == text and len(calls) == 2
    assert qf.scalar_text(qf.q_int(5) * _V3) == text and len(calls) == 2
    # an equal value built after the last reference went is a new object,
    # rendered once on its own
    ref = weakref.ref(x)
    del x
    assert ref() is None
    y = qf.q_int(5) * _V3
    assert not hasattr(y, "_text")
    assert qf.scalar_text(y) == text and len(calls) == 4
    assert qf.scalar_text(y) == text and len(calls) == 4
