"""Graded-dimension accounting.

Counts irreducible words by degree and matches them against the product
formula expansions; all coefficients are exact integers.  The check counts
every degree at once in one walk over the words (`check_word_counts`);
`enumerate_irreducible` lists the words of one degree.
"""

from __future__ import annotations

from typing import List

from .report import Report
from .words import Family, Generator, Word

IntSeries = List[int]


def _product_expansion(order: int, exponent) -> IntSeries:
    """Coefficients up to x^order of prod_k (1 - x^k)^-exponent(k), each
    factor 1/(1 - x^k) applied in place by the prefix recurrence."""
    out = [1] + [0] * order
    for k in range(1, order + 1):
        for _ in range(exponent(k)):
            for i in range(k, order + 1):
                out[i] += out[i - k]
    return out


def partition_series(order: int) -> IntSeries:
    """Coefficients of the partition generating function up to x^order."""
    return _product_expansion(order, lambda k: 1)


def partitions_count(n: int) -> int:
    if n < 0:
        raise ValueError("n must be >= 0")
    return partition_series(n)[n]


def hilbert_Aq(order: int) -> IntSeries:
    """Dimension series of the degree filtration layers: prod 1/(1-x^n)^2."""
    return _product_expansion(order, lambda k: 2)


def hilbert_Oq(order: int) -> IntSeries:
    """The reference series prod 1/(1-x^(2i-1))^2 * 1/(1-x^(2i))."""
    return _product_expansion(order, lambda k: 2 if k % 2 else 1)


def letters_up_to_degree(d: int) -> List[Generator]:
    """All letters of degree <= d, in the canonical order."""
    # a letter's degree exceeds its index, so k < d covers every family
    return sorted(g for g in (Generator(f, k) for f in Family for k in range(d))
                  if g.degree() <= d)


def enumerate_irreducible(d: int) -> List[Word]:
    """All irreducible words of degree exactly d (letters non-decreasing)."""
    if d < 0:
        raise ValueError("degree must be >= 0")
    letters = letters_up_to_degree(d)
    out: List[Word] = []
    _extend(letters, [g.degree() for g in letters], 0, d, [], out)
    return out


def _extend(letters, degrees, start: int, remaining: int, word: list,
            out: List[Word]) -> None:
    """Append to out each word + w, in order, for w a non-decreasing word
    of degree `remaining` in letters[start:].  A module function and not a
    closure, so no cycle holds the words once the caller drops them."""
    if remaining == 0:
        out.append(tuple(word))
        return
    for i in range(start, len(letters)):
        deg = degrees[i]
        if deg > remaining:
            continue
        word.append(letters[i])
        _extend(letters, degrees, i, remaining - deg, word, out)
        word.pop()


def check_dim_identity(order: int) -> Report:
    """Positionwise identity between the two product formulas."""
    report = Report("dim-identity")
    lhs = hilbert_Aq(order)
    h = hilbert_Oq(order)
    p = partition_series(order)
    for d in range(order + 1):
        rhs = sum(h[d - 2 * l] * p[l] for l in range(d // 2 + 1))
        report.add(f"x^{d}", lhs[d] == rhs,
                   "" if lhs[d] == rhs else f"{lhs[d]} != {rhs}")
    return report


def check_word_counts(max_degree: int) -> Report:
    """The count of irreducible words of each degree d <= max_degree
    against hilbert_Aq; a row's detail is the count, so the report is also
    the dimension table.

    One explicit-stack walk visits every non-decreasing word of degree
    <= max_degree once and counts it at its degree, without building it.
    Each letter's successors (itself and the later letters) are sorted by
    degree, so a word stops extending at the first letter too heavy for
    it, and a word that no letter extends is counted but not stacked."""
    letters = letters_up_to_degree(max_degree)
    degrees = [g.degree() for g in letters]
    succ = [sorted((degrees[j], j) for j in range(i, len(letters)))
            for i in range(len(letters))]
    lightest = [s[0][0] for s in succ]
    counts = [1] + [0] * max_degree
    stack = [(0, 0)] if letters else []
    while stack:
        d, i = stack.pop()
        for e, j in succ[i]:
            e += d
            if e > max_degree:
                break
            counts[e] += 1
            if e + lightest[j] <= max_degree:
                stack.append((e, j))
    report = Report("dims")
    series = hilbert_Aq(max_degree)
    for d in range(max_degree + 1):
        report.add(f"degree {d}", counts[d] == series[d], str(counts[d]))
    return report
