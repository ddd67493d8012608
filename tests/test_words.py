import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qonsager import qfield as qf
from qonsager import rewrite
from qonsager import words as W
from qonsager.words import NCPoly, g_, gt_, wm, wp


def all_letters(kmax):
    out = []
    for k in range(kmax + 1):
        out += [g_(k + 1), wm(k), wp(k + 1), gt_(k + 1)]
    return out


def test_gen_cmp_examples():
    # letters compare as their ints: family first, then index
    assert g_(3) < wm(0)
    assert wm(0) < wm(1)  # W_0 before W_{-1}
    assert wp(2) == wp(2) and not wp(2) < wp(2)


def test_gen_cmp_total_order():
    letters = all_letters(10)
    for a in letters:
        for b in letters:
            assert (a < b) + (a == b) + (a > b) == 1
            assert (a < b) == (b > a)
    # transitivity via the sort key is immediate; spot check family ranks
    assert g_(11) < wm(0) < wp(1) < gt_(1)


# -- letters are ints: family * 2^32 + k -----------------------------------

_K_TOP = 2 ** 32 - 1
_letter_args = st.tuples(st.sampled_from(list(W.Family)),
                         st.one_of(st.integers(0, _K_TOP), st.just(_K_TOP),
                                   st.integers(0, 3)))


@given(x=_letter_args, y=_letter_args)
def test_letter_order_is_the_family_then_index_order(x, y):
    g, h = W.Generator(*x), W.Generator(*y)
    assert (g.family, g.k) == x and (h.family, h.k) == y
    assert type(g.family) is W.Family
    assert (g < h) == (x < y) and (g == h) == (x == y)
    assert (hash(g) == hash(h)) == (x == y)
    assert (g > h) == (x > y)
    assert repr(g) == f"Generator(family={x[0]!r}, k={x[1]})"


@given(w=st.lists(_letter_args.map(lambda x: W.Generator(*x)), max_size=4))
def test_letters_and_words_round_trip_through_pickle(w):
    import copy
    import pickle

    w = tuple(w)
    for proto in range(pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(w, proto))
        assert back == w and hash(back) == hash(w)
        assert all(type(g) is W.Generator for g in back)
        assert [(g.family, g.k) for g in back] == [(g.family, g.k) for g in w]
    assert copy.deepcopy(w) == w


def test_a_letter_index_outside_32_bits_is_refused():
    for k in (2 ** 32, -1, 2 ** 40):
        with pytest.raises(ValueError):
            W.Generator(W.Family.G, k)
    top = W.Generator(W.Family.G, _K_TOP)
    assert top < wm(0) and top.k == _K_TOP and top.family is W.Family.G


def test_letters_hash_as_ints_and_are_never_scalars():
    assert W.Generator.__hash__ is int.__hash__
    assert not hasattr(wm(0), "__dict__")
    # int arithmetic would silently turn a letter into a coefficient
    for letter in (g_(1), wm(0), wp(3)):
        with pytest.raises(TypeError):
            qf.of(letter)
        with pytest.raises(TypeError):
            NCPoly.gen(wm(0)) * letter
        with pytest.raises(TypeError):
            letter * NCPoly.gen(wm(0))
        with pytest.raises(TypeError):
            qf.Q * letter
        assert qf.Q != letter


def test_word_degree_examples():
    w = (wp(2), wm(1), g_(3), wp(4))
    assert W.word_degree(w) == 3 + 3 + 6 + 7
    assert W.word_degree(()) == 0
    assert W.word_degree((gt_(1),)) == 2


def test_word_weight_examples():
    assert W.word_weight((wp(2), wm(1), g_(3), wp(4))) == W.Weight(8, 5, 16)
    assert W.word_weight((wp(3), gt_(4), wm(1), wm(2))) == W.Weight(13, 4, 24)
    assert W.word_weight(()) == W.Weight(0, 0, 0)


def test_word_weight_recomputation():
    rng = random.Random(3)
    letters = all_letters(5)
    for _ in range(50):
        word = tuple(rng.choice(letters) for _ in range(rng.randint(0, 5)))
        n = len(word)
        a = sum((n - i) * word[i].weight().a for i in range(n))
        b = sum((n - i) * word[i].weight().b for i in range(n))
        c = sum((n - i) * word[i].weight().c for i in range(n))
        assert W.word_weight(word) == W.Weight(a, b, c)


def test_weight_order_additive_and_total():
    def plus(x, y):
        return W.Weight(*(i + j for i, j in zip(x, y)))

    rng = random.Random(4)
    for _ in range(200):
        u = W.Weight(rng.randint(-9, 9), rng.randint(-9, 9), rng.randint(-9, 9))
        v = W.Weight(rng.randint(-9, 9), rng.randint(-9, 9), rng.randint(-9, 9))
        u2 = W.Weight(rng.randint(-9, 9), rng.randint(-9, 9), rng.randint(-9, 9))
        v2 = W.Weight(rng.randint(-9, 9), rng.randint(-9, 9), rng.randint(-9, 9))
        assert (u < v) or (v < u) or u == v
        if u <= u2 and v <= v2:
            assert plus(u, v) <= plus(u2, v2)


def test_is_irreducible():
    assert W.is_irreducible((wm(0), wp(1)))
    assert not W.is_irreducible((wp(1), wm(0)))
    assert W.is_irreducible(())
    assert W.is_irreducible((g_(1), g_(1)))


def random_poly(rng, max_terms=5, kmax=4):
    letters = all_letters(kmax)
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        word = tuple(rng.choice(letters) for _ in range(rng.randint(0, 3)))
        terms[word] = qf.q_pow(rng.randint(-3, 3)) * qf.of(rng.randint(-4, 4))
    return NCPoly(terms)


def test_sigma_examples():
    assert W.sigma(NCPoly.gen(wm(0))) == NCPoly.gen(wp(1))
    p = NCPoly.word((g_(2), wm(3)))
    assert W.sigma(W.sigma(p)) == p
    q = NCPoly.word((g_(1), wm(0)), qf.Q) + NCPoly.gen(wp(2))
    expected = NCPoly.word((gt_(1), wp(1)), qf.Q) + NCPoly.gen(wm(1))
    assert W.sigma(q) == expected


def test_dagger_examples():
    assert W.dagger(NCPoly.word((wm(0), g_(1)))) == NCPoly.word((gt_(1), wm(0)))
    p = NCPoly.word((wp(2), gt_(3), wm(1)))
    assert W.dagger(W.dagger(p)) == p
    # the two maps commute
    x = NCPoly.word((wm(0), g_(1)))
    both = W.sigma(W.dagger(x))
    assert both == W.dagger(W.sigma(x))
    assert both == NCPoly.word((g_(1), wp(1)))


# sigma and dagger on the families, as the paper defines them
_SIGMA_FAMILY = {W.Family.G: W.Family.Gtilde, W.Family.Gtilde: W.Family.G,
                 W.Family.Wminus: W.Family.Wplus,
                 W.Family.Wplus: W.Family.Wminus}
_DAGGER_FAMILY = {W.Family.G: W.Family.Gtilde, W.Family.Gtilde: W.Family.G,
                  W.Family.Wminus: W.Family.Wminus,
                  W.Family.Wplus: W.Family.Wplus}


def test_letter_maps_swap_the_families_and_are_involutions():
    for g in all_letters(63):
        for image, family in ((W.sigma_letter, _SIGMA_FAMILY),
                              (W.dagger_letter, _DAGGER_FAMILY)):
            h = image(g)
            assert type(h) is W.Generator
            assert (h.family, h.k) == (family[g.family], g.k)
            assert image(h) == g and type(image(h)) is W.Generator


def test_sigma_dagger_commuting_involutions_random():
    rng = random.Random(5)
    for _ in range(40):
        p = random_poly(rng)
        assert W.sigma(W.sigma(p)) == p
        assert W.dagger(W.dagger(p)) == p
        assert W.sigma(W.dagger(p)) == W.dagger(W.sigma(p))


def test_sigma_is_multiplicative():
    rng = random.Random(6)
    for _ in range(20):
        p, q = random_poly(rng, 3), random_poly(rng, 3)
        assert W.sigma(p * q) == W.sigma(p) * W.sigma(q)
        assert W.dagger(p * q) == W.dagger(q) * W.dagger(p)


def test_symbol_from_subscript():
    assert W.symbol_from_subscript("W", -2) == wm(2)
    assert W.symbol_from_subscript("W", 3) == wp(3)
    assert W.symbol_from_subscript("W", 0) == wm(0)
    g0 = W.symbol_from_subscript("G", 0)
    assert g0 == qf.G0
    assert W.symbol_from_subscript("Gt", 0) == qf.G0
    with pytest.raises(IndexError):
        W.symbol_from_subscript("G", -1)


def test_maps_preserve_relation_ideal():
    for name, poly in W.defining_relations(3):
        assert rewrite.normal_form(W.sigma(poly)).is_zero(), f"sigma on {name}"
        assert rewrite.normal_form(W.dagger(poly)).is_zero(), f"dagger on {name}"


def _written_out_images(kmax):
    """The nine relation families that `defining_relations` derives by
    sigma and dagger, as the paper writes them out."""
    rho, qp1 = qf.RHO, qf.q_int(2)
    gen, com, qcom = NCPoly.gen, W.commutator, W.q_commutator
    out = {}
    for k in range(kmax + 1):
        W0, W1, Wk1, Wmk = gen(wm(0)), gen(wp(1)), gen(wp(k + 1)), gen(wm(k))
        Gk1, Gtk1 = gen(g_(k + 1)), gen(gt_(k + 1))
        out[f"3p1b[k={k}]"] = com(Wmk, W1) - (Gtk1 - Gk1) * qp1.inverse()
        rhs2 = rho * gen(wm(k + 1)) - rho * Wk1
        out[f"3p2b[k={k}]"] = qcom(Gtk1, W0) - rhs2
        rhs3 = rho * gen(wp(k + 2)) - rho * Wmk
        out[f"3p3a[k={k}]"] = qcom(Gk1, W1) - rhs3
        out[f"3p3b[k={k}]"] = qcom(W1, Gtk1) - rhs3
        for l in range(kmax + 1):
            Wml, Wpk, Wpl = gen(wm(l)), gen(wp(k + 1)), gen(wp(l + 1))
            Gk, Gl = gen(g_(k + 1)), gen(g_(l + 1))
            Gtk, Gtl = gen(gt_(k + 1)), gen(gt_(l + 1))
            kl = f"[k={k},l={l}]"
            out[f"3p4b{kl}"] = com(Wpk, Wpl)
            out[f"3p7{kl}"] = com(Wmk, Gtl) + com(Gtk, Wml)
            out[f"3p8{kl}"] = com(Wpk, Gl) + com(Gk, Wpl)
            out[f"3p9{kl}"] = com(Wpk, Gtl) + com(Gtk, Wpl)
            out[f"3p10b{kl}"] = com(Gtk, Gtl)
    return out


def test_derived_relations_equal_their_written_out_forms():
    derived = dict(W.defining_relations(3))
    written = _written_out_images(3)
    assert len(derived) == 4 * 6 + 16 * 10 and len(written) == 4 * 4 + 16 * 5
    for label, poly in written.items():
        assert derived[label] == poly, label


def test_ncpoly_equality_is_structural():
    p = NCPoly.word((wm(0), wp(1)), qf.q_int(2))
    q = NCPoly.word((wm(0), wp(1))) * qf.q_int(2)
    assert p == q and hash(p) == hash(q)
    assert (p - q).is_zero()


# NCPoly arithmetic against a term-by-term fold written here.  Coefficients
# are monomials, [n]q, rationals and values with V != 1; a term is
# mirrored with the negated coefficient so that sums cancel.
_coeffs = st.one_of(
    st.integers(-4, 4).map(qf.q_pow),
    st.integers(2, 4).map(qf.q_int),
    st.builds(Fraction, st.integers(-5, 5).filter(bool), st.integers(1, 4)).map(qf.of),
    st.integers(1, 2).map(lambda k: (qf.q_pow(k) + qf.q_pow(-k)).inverse()),
)
_words = st.lists(st.sampled_from([wm(0), wp(1), g_(1), gt_(1)]),
                  max_size=2).map(tuple)
_term_lists = st.lists(st.tuples(_words, _coeffs), max_size=4)


def _fold(pairs):
    acc = {}
    for w, c in pairs:
        acc[w] = acc.get(w, qf.QZERO) + c
    return {w: c for w, c in acc.items() if c}


def _poly(pairs):
    return NCPoly.from_terms(_fold(pairs))


@st.composite
def _poly_pairs(draw):
    x, y = draw(_term_lists), draw(_term_lists)
    mirrored = draw(st.lists(st.sampled_from(x), max_size=len(x))) if x else []
    return x, y + [(w, -c) for w, c in mirrored]


# A scalar multiple also takes an int, zero, and [40]q, whose len(U) +
# len(V) is above `qfield._MEMO_CAP`, so its products skip the product tables.
@given(pair=_poly_pairs(), extra=_term_lists,
       scalar=st.one_of(_coeffs, st.sampled_from([0, 3, qf.QZERO]),
                        st.just(qf.q_int(40))))
def test_ncpoly_arithmetic_equals_the_term_fold(pair, extra, scalar):
    xs, ys = pair
    x, y, z = _poly(xs), _poly(ys), _poly(extra)
    xt, yt = list(x.terms.items()), list(y.terms.items())
    products = [(u + w, c * d) for u, c in xt for w, d in yt]
    scaled = _fold((w, c * scalar) for w, c in xt)
    cases = [
        (NCPoly(xs + ys), _fold(xs + ys)),
        (NCPoly(dict(xs)), _fold(dict(xs).items())),
        (x + y, _fold(xt + yt)),
        (x - y, _fold(xt + [(w, -c) for w, c in yt])),
        (x * y, _fold(products)),
        (x * scalar, scaled),
        (scalar * x, scaled),
        (x * 0, {}),
        (NCPoly.sum([x, y, z]), _fold(xt + yt + list(z.terms.items()))),
        (NCPoly.sum([]), {}),
    ]
    for got, expected in cases:
        assert got.terms == expected
        assert all(not c.is_zero() for c in got.terms.values())
    assert (x - x).is_zero()


_rendered_words = st.lists(_letter_args.map(lambda x: W.Generator(*x)),
                           max_size=5).map(tuple)


@given(w=_rendered_words)
def test_render_word_is_the_join_of_its_letter_texts(w):
    expected = "*".join(letter.text() for letter in w) if w else "1"
    assert W.render_word(w) == expected   # the first call may fill the memo
    assert W.render_word(w) == expected   # a repeat may read it


def test_the_word_text_memo_stops_at_its_cap(monkeypatch):
    rewrite.clear_caches()
    monkeypatch.setattr(W, "_WORD_TEXT_SIZE", 3)
    ws = [(wp(k),) for k in range(1, 6)] + [(wm(2), g_(1)), ()]
    assert [W.render_word(w) for w in ws] == [
        "W[1]", "W[2]", "W[3]", "W[4]", "W[5]", "W[-2]*G[1]", "1"]
    assert list(W._WORD_TEXT) == ws[:3]
    # past the cap a word still renders right, and a memo word reads back
    assert W.render_poly(NCPoly({ws[5]: qf.QONE, ws[0]: qf.of(2)})) == (
        "W[-2]*G[1] + (2)*W[1]")
    assert len(W._WORD_TEXT) == 3
    rewrite.clear_caches()
    assert W._WORD_TEXT == {}
