"""Kernel faults against the check suites: the cells each suite catches.

Each fault is a `monkeypatch` of one kernel function, applied from empty
caches, and each suite runs through `cli.main` at a small size.  A suite
catches a fault when it reports a failed row (exit 1) or stops on an
internal invariant (exit 3).  Only those cells are asserted, each with its
exit code.

Known blind cells, where the suite passes under the fault; they are gaps,
not asserted passes:

- `_sum` of 4 or more shapes is 0: relations, gf, central, dolan-grady,
  prop41 and recover;
- the G0 terms of every rule times q: ambiguities (the scaled rules still
  resolve every overlap, at bound 3 as well);
- the last term of rule iii negated: relations, dolan-grady and recover;
- `dagger_letter` the identity in `rewrite`: recover;
- the last G-sum term of the closed Z_n formula dropped: relations,
  ambiguities, gf, dolan-grady, matrix and prop41, which never build a
  Z_n from that formula;
- the sum of exactly 3 summands in `lincomb` is 0: relations, gf,
  central, prop41 and recover;
- the products of `rewrite.E_II` times q: relations, dolan-grady and
  recover.

`check appendix-b` does not rewrite, and is left out.

A `_strip` that skips q^2 + 1 is not a row, because no suite can see it
when it holds from import on: every value is then canonical over the
coarser basis q, q - 1, q + 1, so equality is still identity.  Edited into
the source, it passes all 8 suites here, and `zn --n 4`, `check
appendix-b` and `check ambiguities --bound 4` print the same output.  The
tests of `qfield` catch it (`test_strip_root_test_matches_trial_division`
and `test_memoized_canon_equals_unmemoized`).  Patched in after import, it
mixes the two bases, since the module scalars keep their powers of
q^2 + 1; `check ambiguities --bound 4` then fails, the suites here still
pass.
"""

import pytest

from qonsager import central as C
from qonsager import cli
from qonsager import qfield as qf
from qonsager import rewrite as R
from qonsager.words import Family, Generator

G, WM, WP, GT = Family.G, Family.Wminus, Family.Wplus, Family.Gtilde

SUITES = {
    "relations": ["check", "relations", "--bound", "1"],
    "ambiguities": ["check", "ambiguities", "--bound", "2"],
    "gf": ["check", "gf", "--order", "3"],
    "central": ["check", "central", "--n", "3", "--bound", "3"],
    "dolan-grady": ["check", "dolan-grady"],
    "matrix": ["check", "matrix", "--order", "3"],
    "prop41": ["check", "prop41", "--order", "3"],
    "recover": ["recover", "--n", "3"],
}


def _sum_of_four_shapes_is_zero(monkeypatch):
    qsum = qf._sum

    def mutant(groups):
        if sum(1 for p, _ in groups.values() if p) >= 4:
            return qf.QZERO
        return qsum(groups)

    monkeypatch.setattr(qf, "_sum", mutant)


def _rule_fault(edit):
    """A fault that edits the term list of each written-out rule; rules vi
    and vii, built from rules iv and v, inherit it."""
    def apply(monkeypatch):
        rule_terms = R._rule_terms

        def mutant(a, b):
            terms = rule_terms(a, b)
            if a.family == GT and b.family in (WM, WP):
                return terms
            return edit(a.family, b.family, list(terms))

        monkeypatch.setattr(R, "_rule_terms", mutant)
    return apply


def _g0_terms_times_q(fa, fb, terms):
    return [(c * qf.Q if len(w) == 1 else c, w) for c, w in terms]


def _rule_iii_last_term_negated(fa, fb, terms):
    if (fa, fb) == (GT, G):
        c, w = terms[-1]
        terms[-1] = (-c, w)
    return terms


def _rule_ii_gt_index_plus_one(fa, fb, terms):
    if (fa, fb) == (WP, WM):   # the l = 0 term G0*Gt[s]
        c, (gt,) = terms[1]
        terms[1] = (c, (Generator(GT, gt.k + 1),))
    return terms


def _rule_iv_first_letter_term_negated(fa, fb, terms):
    if (fa, fb) == (WP, G):    # the l = 0 term G0*W[-s]
        c, w = terms[1]
        terms[1] = (-c, w)
    return terms


def _last_z_n_g_term_dropped(monkeypatch):
    five_sum_terms = C._five_sum_terms
    monkeypatch.setattr(C, "_five_sum_terms",
                        lambda n, g_range: five_sum_terms(n, g_range)[:-1])


def _sum_of_three_summands_is_zero(monkeypatch):
    sum_terms = qf._sum_terms
    monkeypatch.setattr(qf, "_sum_terms", lambda terms: qf.QZERO
                        if len(terms) == 3 else sum_terms(terms))


def _e_ii_products_times_q(monkeypatch):
    product = qf._product

    def mutant(c, x, table):
        if c is not R.E_II:
            return product(c, x, table)
        y = c * x * qf.Q
        qf._PRODUCTS.setdefault(c, table)[x] = y
        return y

    monkeypatch.setattr(qf, "_product", mutant)


FAULTS = {
    "sum-of-4-shapes-is-0": _sum_of_four_shapes_is_zero,
    "g0-terms-times-q": _rule_fault(_g0_terms_times_q),
    "rule-iii-last-term-negated": _rule_fault(_rule_iii_last_term_negated),
    "rule-ii-gt-index-plus-1": _rule_fault(_rule_ii_gt_index_plus_one),
    "rule-iv-letter-term-negated": _rule_fault(
        _rule_iv_first_letter_term_negated),
    "dagger-is-identity": lambda monkeypatch: monkeypatch.setattr(
        R, "dagger_letter", lambda letter: letter),
    "z-n-last-g-term-dropped": _last_z_n_g_term_dropped,
    "sum-of-3-summands-is-0": _sum_of_three_summands_is_zero,
    "e-ii-products-times-q": _e_ii_products_times_q,
}

# fault -> (exit code, the suites that catch it)
CAUGHT = {
    "sum-of-4-shapes-is-0": (1, ["ambiguities", "matrix"]),
    "g0-terms-times-q": (1, ["relations", "gf", "central", "dolan-grady",
                             "matrix", "prop41", "recover"]),
    "rule-iii-last-term-negated": (1, ["ambiguities", "gf", "central",
                                       "matrix", "prop41"]),
    "rule-ii-gt-index-plus-1": (1, list(SUITES)),
    "rule-iv-letter-term-negated": (1, list(SUITES)),
    "dagger-is-identity": (3, [s for s in SUITES if s != "recover"]),
    "z-n-last-g-term-dropped": (1, ["central", "recover"]),
    "sum-of-3-summands-is-0": (1, ["ambiguities", "dolan-grady", "matrix"]),
    "e-ii-products-times-q": (1, ["ambiguities", "gf", "central", "matrix",
                                  "prop41"]),
}

CELLS = [(fault, suite, code) for fault, (code, suites) in CAUGHT.items()
         for suite in suites]


@pytest.mark.parametrize("fault,suite,code", CELLS,
                         ids=[f"{f}-{s}" for f, s, _ in CELLS])
def test_the_suite_catches_the_fault(monkeypatch, capsys, fault, suite, code):
    FAULTS[fault](monkeypatch)
    R.clear_caches()
    try:
        assert cli.main(SUITES[suite]) == code
        if code == 3:
            assert "RewriteInternalError" in capsys.readouterr().err
    finally:
        R.clear_caches()
