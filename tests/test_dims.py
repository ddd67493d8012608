import gc

from qonsager import dims as D
from qonsager.words import g_, is_irreducible, wm, word_degree, wp


def test_partition_counts():
    assert D.partitions_count(0) == 1
    assert D.partitions_count(4) == 5
    # enumerate partitions of 4 by brute force: 4, 31, 22, 211, 1111
    def parts(n, most):
        if n == 0:
            return 1
        return sum(parts(n - k, k) for k in range(min(n, most), 0, -1))
    for n in range(9):
        assert D.partitions_count(n) == parts(n, n)


def test_partition_series_matches_product():
    assert D.partition_series(12) == [D.partitions_count(n) for n in range(13)]


def test_hilbert_series_values():
    assert D.hilbert_Aq(8) == [1, 2, 5, 10, 20, 36, 65, 110, 185]
    assert D.hilbert_Oq(2) == [1, 2, 4]
    assert D.hilbert_Oq(0) == [1]
    assert D.hilbert_Aq(0) == [1]


def test_enumerate_irreducible_basics():
    assert D.enumerate_irreducible(0) == [()]
    words1 = D.enumerate_irreducible(1)
    assert sorted(words1) == [(wm(0),), (wp(1),)]
    assert len(D.enumerate_irreducible(3)) == 10


def test_enumerated_words_are_irreducible_of_right_degree():
    for d in range(7):
        for w in D.enumerate_irreducible(d):
            assert is_irreducible(w)
            assert word_degree(w) == d


def test_counts_match_series():
    rep = D.check_word_counts(10)
    assert rep.passed, [r.name for r in rep.failures()]


def test_dim_identity():
    rep = D.check_dim_identity(12)
    assert rep.passed
    rep0 = D.check_dim_identity(0)
    assert rep0.passed


def test_monotone_growth_heuristic():
    # observed property of the product expansion, not a structural claim
    series = D.hilbert_Aq(10)
    for d in range(1, 11):
        assert series[d] >= series[d - 1]
    assert all(c >= 0 for c in series)


def test_enumeration_leaves_no_cyclic_garbage():
    # the recursion is a module function, so the words it builds are freed
    # by reference counting alone once the caller drops them
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        assert len(D.enumerate_irreducible(8)) == 185
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


def test_word_count_rows_are_the_enumerated_counts():
    # each row's detail is the number of irreducible words of its degree,
    # as the public listing gives them
    rep = D.check_word_counts(14)
    assert [r.name for r in rep.results] == [f"degree {d}" for d in range(15)]
    assert [r.detail for r in rep.results] == [
        str(len(D.enumerate_irreducible(d))) for d in range(15)]
    assert rep.passed


def test_word_counts_count_the_letters_not_the_formula(monkeypatch):
    # without G_3 (degree 6) the words of degree 6 and up fall short of
    # hilbert_Aq, so the counts come from the letters themselves
    letters = D.letters_up_to_degree
    monkeypatch.setattr(D, "letters_up_to_degree",
                        lambda d: [g for g in letters(d) if g != g_(3)])
    rep = D.check_word_counts(8)
    assert [r.passed for r in rep.results] == [True] * 6 + [False] * 3
    assert rep.results[6].detail == str(D.hilbert_Aq(8)[6] - 1)
