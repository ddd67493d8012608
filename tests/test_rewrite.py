import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qonsager import qfield as qf
from qonsager import rewrite as R
from qonsager import words as W
from qonsager.words import NCPoly, g_, gt_, wm, wp


def test_apply_rule_requires_reducible_pair():
    with pytest.raises(ValueError):
        R.apply_rule(wm(0), wp(1))


def test_rule_i_swap():
    assert R.apply_rule(wm(2), wm(1)) == NCPoly.word((wm(1), wm(2)))
    assert R.apply_rule(g_(4), g_(2)) == NCPoly.word((g_(2), g_(4)))


def test_rule_ii_base_case_matches_first_relation():
    # W_1 W_0 = W_0 W_1 - (Gt_1 - G_1)/(q + q^-1)
    inv2 = qf.q_int(2).inverse()
    expected = (NCPoly.word((wm(0), wp(1)))
                - (NCPoly.gen(gt_(1)) - NCPoly.gen(g_(1))) * inv2)
    assert R.apply_rule(wp(1), wm(0)) == expected


def test_rule_iii_base_case():
    c = (qf.q_pow(2) - qf.q_pow(-2)) ** 3
    expected = (NCPoly.word((g_(1), gt_(1)))
                - NCPoly.word((wm(0), wm(0))) * c
                + NCPoly.word((wp(1), wp(1))) * c
                + (NCPoly.word((wm(0), wp(2))) - NCPoly.word((wm(1), wp(1)))) * c)
    assert R.apply_rule(gt_(1), g_(1)) == expected


def test_rule_application_metadata():
    app = R.rule_application(wp(1), wm(0))
    assert app.rule_id == "ii"
    assert app.left_pair == (wp(1), wm(0))
    assert R.rule_id_for(wm(3), wm(1)) == "i_WmWm"
    assert R.rule_id_for(gt_(2), wp(1)) == "vi"
    assert R.rule_id_for(wm(1), g_(2)) == "v"


def test_normal_form_examples():
    p = NCPoly.word((wm(0), wp(1)))
    assert R.normal_form(p) == p
    inv2 = qf.q_int(2).inverse()
    got = R.normal_form(NCPoly.word((wp(1), wm(0))) - NCPoly.word((wm(0), wp(1))))
    assert got == (NCPoly.gen(g_(1)) - NCPoly.gen(gt_(1))) * inv2
    assert R.normal_form(R.normal_form(p)) == R.normal_form(p)


def test_defining_relations_reduce_to_zero():
    for name, poly in W.defining_relations(3):
        assert R.normal_form(poly).is_zero(), name


def reducible_pairs(kmax):
    pairs = []
    fams = [lambda k: g_(k + 1), wm, lambda k: wp(k + 1),
            lambda k: gt_(k + 1)]
    letters = [f(k) for f in fams for k in range(kmax + 1)]
    for a in letters:
        for b in letters:
            if a > b:
                pairs.append((a, b))
    return pairs


# The rule bodies as the paper writes them: every letter is built from its
# family and subscript, a subscript-zero G symbol is the scalar G0, and rules
# vi and vii are the dagger images of rules iv and v.
_DAGGER_FAMILY = {W.Family.G: W.Family.Gtilde, W.Family.Gtilde: W.Family.G,
                  W.Family.Wminus: W.Family.Wminus,
                  W.Family.Wplus: W.Family.Wplus}


def _reference_dagger(g):
    return W.Generator(_DAGGER_FAMILY[g.family], g.k)


def _reference_term(coeff, *symbols):
    letters = []
    for s in symbols:
        if isinstance(s, W.Generator):
            letters.append(s)
        else:
            coeff = coeff * s
    return coeff, tuple(letters)


def _reference_rule_terms(a, b):
    G = lambda n: W.symbol_from_subscript("G", n)
    Gt = lambda n: W.symbol_from_subscript("Gt", n)
    term, w_sub = _reference_term, W.w_sub
    fa, fb = a.family, b.family
    if fa == W.Family.Gtilde and fb in (W.Family.Wplus, W.Family.Wminus):
        return [(c, tuple(_reference_dagger(g) for g in reversed(w)))
                for c, w in _reference_rule_terms(_reference_dagger(b),
                                                  _reference_dagger(a))]
    i, j = a.k, b.k
    terms = []
    if fa == fb:
        return [(qf.QONE, (b, a))]
    if (fa, fb) == (W.Family.Wplus, W.Family.Wminus):
        terms.append((qf.QONE, (b, a)))
        for l in range(min(i, j) + 1):
            terms.append(term(R.E_II, G(l), Gt(i + j + 1 - l)))
            terms.append(term(-R.E_II, G(i + j + 1 - l), Gt(l)))
        return terms
    if (fa, fb) == (W.Family.Gtilde, W.Family.G):
        c = R.C_III
        terms.append((qf.QONE, (g_(j + 1), gt_(i + 1))))
        terms.append((-c, (wm(i), wm(j))))
        terms.append((c, (wp(i + 1), wp(j + 1))))
        for l in range(min(i, j) + 1):
            terms.append(term(c, wm(l), w_sub(i + j + 2 - l)))
            terms.append(term(-c, w_sub(l - 1 - i - j), wp(l + 1)))
        for l in range(1, min(i, j) + 1):
            terms.append(term(-c, w_sub(1 - l), w_sub(i + j + 1 - l)))
            terms.append(term(c, w_sub(l - i - j), w_sub(l)))
        return terms
    if (fa, fb) == (W.Family.Wplus, W.Family.G):
        c = R.C_IV
        terms.append((qf.QONE, (g_(j + 1), wp(i + 1))))
        for l in range(min(i, j) + 1):
            terms.append(term(c, G(l), w_sub(l - i - j)))
            terms.append(term(c, G(i + j + 1 - l), wp(l + 1)))
            terms.append(term(-c, G(l), w_sub(i + j + 2 - l)))
        for l in range(1, min(i, j) + 1):
            terms.append(term(-c, G(i + j + 1 - l), w_sub(1 - l)))
        return terms
    if (fa, fb) == (W.Family.Wminus, W.Family.G):
        c = R.C_V
        terms.append((qf.QONE, (g_(j + 1), wm(i))))
        for l in range(min(i, j) + 1):
            terms.append(term(-c, G(l), w_sub(i + j + 1 - l)))
            terms.append(term(c, G(l), w_sub(l - 1 - i - j)))
            terms.append(term(-c, G(i + j + 1 - l), wm(l)))
        for l in range(1, min(i, j) + 1):
            terms.append(term(c, G(i + j + 1 - l), w_sub(l)))
        return terms
    raise AssertionError(f"no rule for pair {a} {b}")


def test_rule_terms_equal_the_written_out_formulas():
    # the same terms in the same order, each coefficient the same object
    for a, b in reducible_pairs(8):
        got = R._rule_terms(a, b)
        expected = _reference_rule_terms(a, b)
        assert [w for _, w in got] == [w for _, w in expected], (a, b)
        assert all(c is e for (c, _), (e, _) in zip(got, expected)), (a, b)
        assert all(type(g) is W.Generator for _, w in got for g in w)


def test_soundness_of_every_rule():
    for a, b in reducible_pairs(4):
        lhs = R.normal_form(NCPoly.word((a, b)))
        rhs = R.normal_form(R.apply_rule(a, b))
        assert lhs == rhs, (a, b)


def test_rule_results_irreducible_after_nf():
    rng = random.Random(9)
    letters = [g_(1), g_(3), wm(0), wm(2), wp(1), wp(3), gt_(2), gt_(4)]
    for _ in range(25):
        word = tuple(rng.choice(letters) for _ in range(rng.randint(0, 4)))
        nf = R.normal_form(NCPoly.word(word))
        for u in nf.words():
            assert W.is_irreducible(u)


def test_degree_filtration():
    rng = random.Random(10)
    letters = [g_(k + 1) for k in range(4)] + [wm(k) for k in range(4)] + \
              [wp(k + 1) for k in range(4)] + [gt_(k + 1) for k in range(4)]
    for _ in range(30):
        word = tuple(rng.choice(letters) for _ in range(rng.randint(1, 4)))
        d = W.word_degree(word)
        nf = R.normal_form(NCPoly.word(word))
        assert all(W.word_degree(u) <= d for u in nf.words())


# every letter with a subscript of absolute value at most 2; with
# subscripts up to 3, a hundred words of length 4 take about 100 s
_LETTERS = [g_(1), g_(2), gt_(1), gt_(2), wm(0), wm(1), wm(2), wp(1), wp(2)]


def _with_seeded_strategy_words(test):
    """Attach the earlier hand-seeded words, subscripts up to 4."""
    letters = [g_(k + 1) for k in range(4)] + [wm(k) for k in range(4)] + \
              [wp(k + 1) for k in range(4)] + [gt_(k + 1) for k in range(4)]
    for seed in range(100, 120):
        rng = random.Random(seed)
        word = tuple(rng.choice(letters) for _ in range(rng.randint(2, 4)))
        test = example(word=word, seed=seed)(test)
    return test


@given(word=st.lists(st.sampled_from(_LETTERS), max_size=4).map(tuple),
       seed=st.integers(0, 2 ** 32 - 1))
@_with_seeded_strategy_words
@settings(deadline=None)
def test_strategy_independence(word, seed):
    p = NCPoly.word(word)
    leftmost = R.normal_form(p)
    assert R.reduce_with_strategy(p, random.Random(seed)) == leftmost
    assert R.normal_form(leftmost) == leftmost
    assert all(W.is_irreducible(u) for u in leftmost.words())


def _with_seeded_examples(test):
    """Attach the earlier hand-seeded cases as explicit examples."""
    rng = random.Random(11)
    letters = [g_(1), g_(2), wm(0), wm(1), wp(1), wp(2), gt_(1), gt_(2)]
    for _ in range(20):
        word = tuple(rng.choice(letters) for _ in range(rng.randint(1, 3)))
        test = example(word=word, power=rng.randint(-2, 2))(test)
    return test


@given(word=st.lists(st.sampled_from(_LETTERS), min_size=1, max_size=4).map(tuple),
       power=st.integers(-2, 2))
@_with_seeded_examples
@settings(deadline=None)
def test_sigma_dagger_preserve_normal_form_classes(word, power):
    p = NCPoly.word(word, qf.q_pow(power))
    nf = R.normal_form(p)
    # both maps preserve the relation ideal, so the images of p and of
    # its normal form must land in the same class
    assert R.normal_form(W.sigma(p)) == R.normal_form(W.sigma(nf))
    assert R.normal_form(W.dagger(p)) == R.normal_form(W.dagger(nf))


def test_measure_decreases_examples():
    host = (wp(1), wm(0))
    app = R.rule_application(wp(1), wm(0))
    assert R.measure_decreases(host, 0, app)
    host2 = (wm(1), wm(0), g_(1))
    app2 = R.rule_application(wm(1), wm(0))
    assert R.measure_decreases(host2, 0, app2)
    app3 = R.rule_application(gt_(3), gt_(1))
    assert R.measure_decreases((gt_(3), gt_(1)), 0, app3)
    with pytest.raises(ValueError):
        R.measure_decreases(host, 1, app)


def test_measure_decreases_everywhere():
    for a, b in reducible_pairs(3):
        app = R.rule_application(a, b)
        assert R.measure_decreases((a, b), 0, app)
        assert R.measure_decreases((gt_(5), a, b), 1, app)


# hosts of 2 to 6 letters with indices up to 4, and a replacement of 0 to
# 2 letters for a pair of the host: any pair, not only a rule's
_ALL_LETTERS = [W.Generator(f, k) for f in W.Family for k in range(5)]


@example(host=(wm(3), g_(1), g_(1)), pos=0, u=(g_(1), gt_(1)))
@example(host=(wm(3), g_(1)), pos=0, u=(g_(1), gt_(1)))
@given(host=st.lists(st.sampled_from(_ALL_LETTERS), min_size=2,
                     max_size=6).map(tuple),
       pos=st.integers(0, 4),
       u=st.lists(st.sampled_from(_ALL_LETTERS), max_size=2).map(tuple))
def test_step_delta_decides_as_the_word_weights(host, pos, u):
    pos = min(pos, len(host) - 2)
    pair = host[pos:pos + 2]
    app = R.RuleApplication("any", pair, NCPoly.word(u))
    d, = R._step_deltas(*pair, [u])
    closed = d is None or R._decreases(len(host) - pos, d)
    assert closed == R.measure_decreases(host, pos, app)


def _mutant_rule_body(monkeypatch, pair, word):
    """Make the body of the rule for pair gain the word, from empty
    caches."""
    rule_terms = R._rule_terms

    def mutant(a, b):
        terms = rule_terms(a, b)
        return terms + [(qf.QONE, word)] if (a, b) == pair else terms

    monkeypatch.setattr(R, "_rule_terms", mutant)
    R.clear_caches()


def test_a_descendant_that_grows_only_inside_a_word_is_caught(monkeypatch):
    # G[1]*Gt[1] weighs (2, 0, 3) against (2, 0, 7) for W[-3]*G[1], so the
    # step lowers the pair itself (m = 2); at m = 3 the deltas D0 = (-1, 0,
    # -2) and D1 = (2, 0, 0) give 3*D0 + 2*D1 = (1, 0, -6) >= (0, 0, 0), so
    # the rule is refused when it is built, before any word rewrites with it
    pair, word = (wm(3), g_(1)), (g_(1), gt_(1))
    d, = R._step_deltas(*pair, [word])
    assert R._decreases(2, d) and not R._decreases(3, d)
    _mutant_rule_body(monkeypatch, pair, word)
    try:
        with pytest.raises(R.RewriteInternalError,
                           match="does not decrease the measure"):
            R.apply_rule(*pair)
    finally:
        R.clear_caches()


def test_a_step_that_fails_only_far_from_the_end_is_refused_at_build(
        monkeypatch):
    # G[4]*G[1] -> G[1]*G[5] has the deltas D0 = (0, 0, -3) and D1 = (0, 0,
    # 4), so it changes the weight by m - 4 in the last coordinate: -2, -1
    # and 0 at m = 2, 3 and 4.  No word of four letters need reach it: the
    # two-letter word already refuses the rule.
    pair, word = (g_(4), g_(1)), (g_(1), g_(5))
    d, = R._step_deltas(*pair, [word])
    assert [R._decreases(m, d) for m in (2, 3, 4)] == [True, True, False]
    _mutant_rule_body(monkeypatch, pair, word)
    try:
        with pytest.raises(R.RewriteInternalError,
                           match="does not decrease the measure"):
            R.normal_form(NCPoly.word(pair))
    finally:
        R.clear_caches()


# small deltas, and the examples the two-point form must get right: steps
# that fail only at m = 3, at m = 4 and at m = 6, one whose first
# coordinate is 0 at m = 2 and grows, one whose first coordinate is 0 at m
# = 2 and falls, and the all-zero step
@example(d=(-1, 0, -2, 2, 0, 0))
@example(d=(0, 0, -3, 0, 0, 4))
@example(d=(0, 0, -5, 0, 0, 6))
@example(d=(-1, 0, 0, 2, 0, -9))
@example(d=(1, -1, 0, -2, 0, 0))
@example(d=(0, 0, 0, 0, 0, 0))
@given(d=st.tuples(*[st.integers(-4, 4)] * 6))
def test_descends_decides_every_distance_from_two(d):
    far = 3 + 3 * max(map(abs, d)) + 20
    assert R._descends(d) == all(R._decreases(m, d) for m in range(2, far))


def test_every_rule_builds_at_small_indices_and_at_index_9999():
    # each build certifies every step of its rule at every distance; the
    # far pairs have the largest deltas, and up to 40,001 body words
    far = [W.Generator(f, 9999) for f in W.Family]
    pairs = reducible_pairs(8) + [(a, b) for a in far for b in far if a > b]
    pairs += [(a, W.Generator(a.family, 9998)) for a in far]
    R.clear_caches()
    try:
        for a, b in pairs:
            assert R.apply_rule(a, b).terms
        assert len(R._RULE_CACHE) == len(pairs) == 630 + 10
    finally:
        R.clear_caches()


@pytest.mark.parametrize("pair,word", [
    # the pair itself weighs as much as the pair: 2*D0 + D1 = 0
    ((wp(1), wm(0)), (wp(1), wm(0))),
    # its first two letters decrease the measure, but it is longer
    ((gt_(3), gt_(1)), (gt_(1), gt_(3), gt_(1))),
], ids=["own-pair", "three-letters"])
def test_a_rule_body_that_does_not_decrease_the_measure_is_refused(
        monkeypatch, pair, word):
    _mutant_rule_body(monkeypatch, pair, word)
    try:
        if len(word) > 2:   # only the length can refuse this word
            assert R._decreases(2, *R._step_deltas(*pair, [word[:2]]))
        with pytest.raises(R.RewriteInternalError,
                           match="does not decrease the measure"):
            R.apply_rule(*pair)
    finally:
        R.clear_caches()


def test_check_overlap_examples():
    rep = R.check_overlap((wp(1), wm(0), g_(1)))
    assert rep.agrees
    # commuting family: both orders sort the word
    rep2 = R.check_overlap((g_(3), g_(2), g_(1)))
    assert rep2.agrees
    assert rep2.nf_left == NCPoly.word((g_(1), g_(2), g_(3)))
    rep3 = R.check_overlap((gt_(2), gt_(1), wm(1)))
    assert rep3.agrees
    with pytest.raises(ValueError):
        R.check_overlap((wm(0), wp(1), gt_(1)))


def overlap_count_formula(b):
    n = b + 1
    pairs = n * (n - 1) // 2
    triples = n * (n - 1) * (n - 2) // 6
    return 4 * n ** 3 + 6 * pairs * n + 6 * n * pairs + 4 * triples


def test_enumerate_overlaps_counts():
    assert len(R.enumerate_overlaps(0)) == 4
    for b in (0, 1, 2, 3):
        got = R.enumerate_overlaps(b)
        assert len(got) == overlap_count_formula(b)
        assert len(set(got)) == len(got)
        for w in got:
            assert w[0] > w[1] and w[1] > w[2]


def test_confluence_small_bound():
    for w in R.enumerate_overlaps(1):
        assert R.check_overlap(w).agrees, w


def test_rule_coefficients_are_signed_basis_monomials():
    # every rule coefficient is +-q^a (q-1)^b (q+1)^c (q^2+1)^d, so a miss
    # of the walk's product tables takes QRat.__mul__'s monomial path
    for a, b in reducible_pairs(6):
        for c in R.apply_rule(a, b).terms.values():
            assert (abs(c.p), c.r, c.u, c.v) == (1, 1, qf.P_ONE, qf.P_ONE), \
                (a, b, c)


class _FillLog(dict):
    """A normal-form cache that records each word stored into it, in order,
    and the most entries it held at once."""

    def __init__(self):
        super().__init__()
        self.filled = []
        self.peak = 0

    def __setitem__(self, w, terms):
        self.filled.append(w)
        super().__setitem__(w, terms)
        self.peak = max(self.peak, len(self))


def _fill_log(monkeypatch) -> _FillLog:
    """Empty the caches and record the normal-form fills that follow."""
    R.clear_caches()
    log = _FillLog()
    monkeypatch.setattr(R, "_NF_CACHE", log)
    return log


def test_word_nf_looks_up_one_rule_per_filled_word(monkeypatch, capsys):
    from qonsager import cli
    log = _fill_log(monkeypatch)
    calls = []
    rule = R._rule

    def counted(a, b):
        calls.append((a, b))
        return rule(a, b)

    monkeypatch.setattr(R, "_rule", counted)
    assert cli.main(["check", "ambiguities", "--bound", "2"]) == 0
    capsys.readouterr()
    # the reducible words filled during the run, dropped or not
    filled = [w for w in log.filled if W.first_descent(w) is not None]
    # apply_rule looks up both rules of each overlap once more
    assert len(calls) == len(filled) + 2 * len(R.enumerate_overlaps(2))


def test_a_cold_ambiguity_run_fills_each_word_once_and_drops_most(
        monkeypatch, capsys):
    # resolving the overlaps by decreasing degree drops the words no later
    # overlap can reach, and none of them is ever filled again
    from qonsager import cli
    log = _fill_log(monkeypatch)
    assert cli.main(["check", "ambiguities", "--bound", "3"]) == 0
    capsys.readouterr()
    assert len(log.filled) == len(set(log.filled)) == 8976
    assert log.peak < 8976 // 2


def test_no_rule_body_word_rises_above_its_pairs_degree():
    # the invariant the degree-ordered drop in `resolve_overlaps` rests on
    for a, b in reducible_pairs(6):
        top = a.degree() + b.degree()
        for u in R._rule(a, b).terms:
            assert W.word_degree(u) <= top, (a, b, u)


def test_a_cold_ambiguity_run_checks_each_step_once_when_its_rule_is_built(
        monkeypatch, capsys):
    from qonsager import cli
    log = _fill_log(monkeypatch)
    calls = []
    descends = R._descends

    def counted(d):
        calls.append(d)
        return descends(d)

    monkeypatch.setattr(R, "_descends", counted)
    try:
        assert cli.main(["check", "ambiguities", "--bound", "2"]) == 0
        capsys.readouterr()
        # one check for each two-letter body word of each rule built, and
        # none in the walk
        assert len(calls) == sum(len(u) == 2 for body in R._RULE_CACHE.values()
                                 for u in body.terms)
        # the words and rules a cold bound-2 run fills
        assert len(log.filled) == 3548
        assert len(R._RULE_CACHE) == 236
    finally:
        R.clear_caches()


# keys shared between the term dicts, and scalars of every shape: 1, unit
# monomials, [n]q, rationals and V != 1 values
_KEYS = st.sampled_from("abcd")
_scalars = st.one_of(
    st.just(qf.QONE),
    st.integers(-3, 3).map(qf.q_pow),
    st.integers(-3, 3).map(lambda k: -(qf.q_pow(k) * (qf.Q - qf.QONE))),
    st.integers(2, 4).map(qf.q_int),
    st.builds(lambda n, d: qf.of(Fraction(n, d)),
              st.integers(-5, 5).filter(bool), st.integers(1, 4)),
    st.integers(1, 3).map(lambda k: (qf.q_pow(k) + qf.q_pow(-k)).inverse()),
)
_coeffs = st.one_of(_scalars, st.integers(-3, 3).map(
    lambda k: qf.q_pow(k) - qf.QONE)).filter(bool)


def _fold(scaled):
    acc = {}
    for c, t in scaled:
        for u, cu in t.items():
            prev = acc.get(u)
            s = c * cu if prev is None else prev + c * cu
            if s.is_zero():
                acc.pop(u, None)
            else:
                acc[u] = s
    return acc


def _fields(x):
    return (x.p, x.r, x.a, x.b, x.c, x.d, x.u, x.v)


def _assert_equal_terms(got, expected):
    assert got.keys() == expected.keys()
    for u, c in expected.items():
        assert _fields(got[u]) == _fields(c), u


@example(scaled=[(qf.QONE, {"a": qf.Q}), (-qf.QONE, {"a": qf.Q})])
@example(scaled=[(qf.q_int(2), {"a": qf.Q, "b": qf.QONE}),
                 (qf.Q, {"a": qf.QONE, "b": qf.q_int(2)}),
                 (qf.QONE, {"b": qf.QONE})])
@given(scaled=st.lists(st.tuples(
    _scalars, st.dictionaries(_KEYS, _coeffs, max_size=4)), max_size=5))
def test_combine_equals_the_binary_fold(scaled):
    _assert_equal_terms(R._combine(scaled), _fold(scaled))


@given(scaled=st.lists(st.tuples(
    _scalars, st.dictionaries(_KEYS, _coeffs, max_size=4)), max_size=5))
def test_combine_with_warm_product_tables_equals_the_binary_fold(scaled):
    qf.clear_memos()
    R._combine(scaled)   # fills the product tables
    for c, t in scaled:
        if not c.is_one():
            for x in t.values():
                assert _fields(qf._PRODUCTS[c][x]) == _fields(c * x)
    _assert_equal_terms(R._combine(scaled), _fold(scaled))
