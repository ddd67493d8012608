"""Acceptance suite: one test per criterion, all exact (zero tolerance).

Each test prints a single PASS line once its criterion is fully
established; any failure surfaces as an ordinary assertion error.
"""

import time

from qonsager import central as C
from qonsager import dims as D
from qonsager import qfield as qf
from qonsager import rewrite as R
from qonsager import series as S
from qonsager import words as W
from qonsager.words import NCPoly, dagger, g_, gt_, sigma, wm, word_degree, wp

EXPECTED_DIMS = [1, 2, 5, 10, 20, 36, 65, 110, 185]


def _announce(num, label, started):
    print(f"ACCEPTANCE {num} ({label}): PASS [{time.time() - started:.1f}s]")


def test_criterion_1_dimension_table():
    started = time.time()
    series_ = D.hilbert_Aq(8)
    counts = [len(D.enumerate_irreducible(d)) for d in range(9)]
    assert counts == EXPECTED_DIMS
    assert series_ == EXPECTED_DIMS
    assert time.time() - started < 60
    _announce(1, "dimension table d<=8", started)


def test_criterion_2_defining_relations():
    started = time.time()
    rels = W.defining_relations(4)
    for name, poly in rels:
        assert R.normal_form(poly).is_zero(), name
    assert len(rels) >= 200
    assert time.time() - started < 60
    _announce(2, f"defining relations, {len(rels)} identities", started)


def test_criterion_3_confluence():
    started = time.time()
    overlaps = R.enumerate_overlaps(3)
    assert len(overlaps) == 560
    for w in overlaps:
        assert R.check_overlap(w).agrees, w
    assert time.time() - started < 300
    _announce(3, "confluence of 560 overlap ambiguities", started)


def test_criterion_4_gf_layer():
    started = time.time()
    gf_rep = S.check_gf_relations(5)
    assert gf_rep.passed, [r.name for r in gf_rep.failures()]
    p41 = S.check_prop41_decompositions(4)
    assert p41.passed, [(r.name, r.detail) for r in p41.failures()]
    decomp = [r for r in p41.results if r.name.startswith("decomposition")]
    extract = [r for r in p41.results if r.name.startswith("extraction")]
    assert len(decomp) == 6 and len(extract) == 6
    _announce(4, "generating-function layer", started)


def test_criterion_5_central_elements():
    started = time.time()
    assert C.z_n(0) == NCPoly.scalar(qf.q_int(2) ** 2)
    for n in range(5):
        zn = C.z_n(n, "direct")
        assert zn == C.z_n(n, "extraction"), f"routes differ at n={n}"
        assert R.normal_form(sigma(zn)) == zn, f"sigma moves Z_{n}"
        assert R.normal_form(dagger(zn)) == zn, f"dagger moves Z_{n}"
        assert all(word_degree(w) <= 2 * n for w in zn.words())
        rep = C.check_central(n, 6)
        assert len(rep.results) == 24
        assert rep.passed, [r.name for r in rep.failures()]
    assert time.time() - started < 300
    _announce(5, "central elements n<=4 against 24 generators", started)


def test_criterion_6_appendix_b_tables():
    started = time.time()
    rep = C.check_appendix_b()
    assert rep.passed, [r.name for r in rep.failures()]
    _announce(6, "transform tables", started)


def test_criterion_7_generator_recovery():
    started = time.time()
    table = C.recover_generators(3)
    for n in range(1, 4):
        assert table[g_(n)] == NCPoly.gen(g_(n))
        assert table[gt_(n)] == NCPoly.gen(gt_(n))
        assert table[wm(n)] == NCPoly.gen(wm(n))
        assert table[wp(n + 1)] == NCPoly.gen(wp(n + 1))
    _announce(7, "generator recovery n<=3", started)


def test_criterion_8_dolan_grady():
    started = time.time()
    first, second = C.dolan_grady_polys()
    assert R.normal_form(first).is_zero()
    assert R.normal_form(second).is_zero()
    _announce(8, "q-Dolan/Grady relations", started)


def test_criterion_9_matrix_factorization():
    started = time.time()
    rep = C.check_matrix_factorization(3)
    assert rep.passed, [(r.name, r.detail) for r in rep.failures()]
    assert len(rep.results) == 8
    _announce(9, "matrix factorization, both orders", started)


def test_criterion_10_dimension_identity():
    started = time.time()
    rep = D.check_dim_identity(12)
    assert rep.passed
    assert len(rep.results) == 13
    _announce(10, "product-formula identity to order 12", started)
