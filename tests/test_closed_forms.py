"""Closed forms of the labeled sweep totals.

Every summary count of a labeled sweep except the metric universal
count has an independent formula.  They are checked against
``run_sweep`` where a sweep is quick (graphs up to n = 7), and at
n = 7 and 8 against the totals recorded from full sweeps.
"""

from math import comb, factorial

import pytest

from linesys import run_sweep

# Labeled posets on n points, OEIS A001035, n = 0..8.
LABELED_POSETS = (1, 1, 3, 19, 219, 4231, 130023, 6129859, 431723379)


def graphs_with_a_universal_line(n):
    """Graphs with two vertices adjacent to all others, by inclusion and
    exclusion over the k vertices adjacent to all: they form a clique
    joined to the rest, which is any graph."""
    return sum(
        (-1) ** k * (k - 1) * comb(n, k) * 2 ** comb(n - k, 2) for k in range(2, n + 1)
    )


def graph_equality_cases(n):
    """A clique on n - 1 vertices plus one vertex with no neighbour or
    one: n choices of that vertex, n choices of its neighbourhood.  At
    n = 3 choices coincide, and the shape is every graph but the
    triangle."""
    return 7 if n == 3 else n * n


def stacked_posets(m, parts):
    """Labeled ways to spread m points over ``parts`` ordered gaps, each
    holding any poset: m! [x^m] P(x)^parts for P(x) = sum A001035(j)
    x^j / j!."""
    if parts == 0:
        return int(m == 0)
    return sum(
        comb(m, j) * LABELED_POSETS[j] * stacked_posets(m - j, parts - 1)
        for j in range(m + 1)
    )


def posets_with_a_universal_line(n):
    """Posets with two points comparable to all others, by inclusion and
    exclusion over the k points comparable to all: they form a chain
    (k! orders), and the other points fill its k + 1 gaps."""
    return sum(
        (-1) ** k * (k - 1) * comb(n, k) * factorial(k) * stacked_posets(n - k, k + 1)
        for k in range(2, n + 1)
    )


def poset_equality_cases(n):
    """A chain on n - 1 points plus one point that is isolated, above
    the minimum only or below the maximum only (n >= 4)."""
    return 3 * factorial(n)


def connected_graphs(n):
    """Connected labeled graphs, OEIS A001187: all graphs less those
    whose vertex 0 lies in a component of k < n vertices."""
    count = [0, 1]
    for m in range(2, n + 1):
        count.append(2 ** comb(m, 2) - sum(
            comb(m - 1, k - 1) * count[k] * 2 ** comb(m - k, 2) for k in range(1, m)
        ))
    return count[n]


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
def test_graph_sweep_totals(n):
    summary = run_sweep("graph", n)
    assert (summary.enumerated, summary.reported) == (2 ** comb(n, 2),) * 2
    assert summary.universal_count == graphs_with_a_universal_line(n)
    assert summary.equality_cases == graph_equality_cases(n)
    assert summary.shape_matches == graph_equality_cases(n)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_poset_sweep_totals(n):
    summary = run_sweep("poset", n)
    assert summary.enumerated == LABELED_POSETS[n]
    # Every poset but the antichain has height at least 2.
    assert summary.reported == LABELED_POSETS[n] - 1
    assert summary.universal_count == posets_with_a_universal_line(n)
    equality = summary.equality_cases
    assert equality == summary.shape_matches
    if n >= 4:
        assert equality == poset_equality_cases(n)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_metric_sweep_reports_every_connected_graph(n):
    summary = run_sweep("metric", n)
    assert summary.enumerated == 2 ** comb(n, 2)
    assert summary.reported == connected_graphs(n)


def test_formulas_give_the_recorded_totals_of_the_largest_sweeps():
    # Graph n = 7: universal 17725, equality cases 49.  Graph n = 8:
    # checked 267620753, universal 814703, equality cases 64.  Poset
    # n = 7: reported 6129858, universal 462546, equality cases 15120.
    # Metric n = 7: reported 1866256.  Poset n = 8 has no labeled sweep;
    # its universal total is the one the formula gave when first derived.
    assert graphs_with_a_universal_line(7) == 17725
    assert graph_equality_cases(7) == 49
    assert 2 ** comb(8, 2) - graphs_with_a_universal_line(8) == 267620753
    assert graphs_with_a_universal_line(8) == 814703
    assert graph_equality_cases(8) == 64
    assert LABELED_POSETS[7] - 1 == 6129858
    assert posets_with_a_universal_line(7) == 462546
    assert poset_equality_cases(7) == 15120
    assert connected_graphs(7) == 1866256
    assert posets_with_a_universal_line(8) == 19860792
    assert [posets_with_a_universal_line(n) for n in range(3, 7)] == [6, 60, 780, 15690]
    assert [graphs_with_a_universal_line(n) for n in range(3, 7)] == [1, 7, 51, 711]


def test_stacked_posets_on_small_cases():
    # One gap holds any poset.  Two points in two gaps: both in one gap
    # (3 posets, either gap) or one in each (2 ways).
    for m in range(len(LABELED_POSETS)):
        assert stacked_posets(m, 1) == LABELED_POSETS[m]
    assert stacked_posets(2, 2) == 2 * 3 + 2
