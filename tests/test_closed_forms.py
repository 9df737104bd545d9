"""Closed forms of the labeled sweep totals.

Every summary count of a labeled sweep except the metric universal
count has an independent formula.  They are checked against
``run_sweep`` where a sweep is quick (graphs and metrics up to n = 7),
and at n = 7 and 8 against the totals recorded from full sweeps.  The
metric universal count, which has no formula, is pinned to the totals
recorded from full sweeps.

The line counts of complete multipartite graphs, and of the weak orders
whose comparability graphs they are, have a closed form too; it is
checked against the oracle on small part lists and through the CLI on
generated inputs of up to 300 points.
"""

import io
from itertools import combinations
from math import comb, factorial

import pytest
from reference import graph_betweenness, line_mask_set

from linesys import dbe_bound, parse_graph, run_sweep
from linesys.cli import EXIT_OK, main

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


# Metric universal counts recorded from full sweeps, by n.
METRIC_UNIVERSAL = {3: 3, 4: 37, 5: 600, 6: 21661, 7: 1336972}


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
def test_metric_sweep_reports_every_connected_graph(n):
    summary = run_sweep("metric", n)
    assert summary.enumerated == 2 ** comb(n, 2)
    assert summary.reported == connected_graphs(n)
    assert summary.universal_count == METRIC_UNIVERSAL[n]
    # The triangle's three pair lines are the one equality case; a
    # metric has no extremal shape for it to disagree with.
    assert summary.equality_cases == (n == 3)
    assert (summary.violations, summary.mismatch_ids) == ((), ())


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


# --- complete multipartite graphs and weak orders ---------------------------

def multipartite_lines(parts):
    """(lines, universal) of the complete multipartite graph with the
    given part sizes, t of them 1.  A bare pair inside a part is its own
    line, and so is an edge between two parts of size at least 2: the
    edge plus every point outside both parts.  The t edges from the
    singletons to a point x of a larger part all give one line, every
    point but the rest of x's part, so each of the n - t such points
    repeats t - 1 lines.  The C(t, 2) edges between singletons all give
    the universal line, so with t >= 2 there is one, repeated
    C(t, 2) - 1 times.  (The edgeless graph on 2 points, outside every
    verified size, is the one exception: its bare pair is universal.)"""
    n, t = sum(parts), parts.count(1)
    if t <= 1:
        return comb(n, 2), False
    return comb(n, 2) - (comb(t, 2) - 1) - (t - 1) * (n - t), True


def blocks(parts):
    """Consecutive runs of points, one per part."""
    starts = [sum(parts[:i]) for i in range(len(parts))]
    return [range(start, start + size) for start, size in zip(starts, parts)]


def multipartite_text(parts):
    """The complete multipartite graph as ``verify --kind graph`` input."""
    parts_of = blocks(parts)
    edges = [
        f"{a} {b}" for x, y in combinations(parts_of, 2) for a in x for b in y
    ]
    return "\n".join([f"{sum(parts)} {len(edges)}", *edges, ""])


def weak_order_text(parts):
    """The parts stacked as levels, each point below every point of the
    next level, as ``verify --kind poset`` input."""
    parts_of = blocks(parts)
    covers = [f"{a} {b}" for x, y in zip(parts_of, parts_of[1:]) for a in x for b in y]
    return "\n".join([f"{sum(parts)} {len(covers)}", *covers, ""])


def run_on(tmp_path, argv, text):
    path = tmp_path / "input.txt"
    path.write_text(text)
    out = io.StringIO()
    return main([*argv, str(path)], out=out), out.getvalue()


def part_lists(n, largest=None):
    """Every part list of n in non-increasing order."""
    if n == 0:
        yield []
    for first in range(min(n, largest or n), 0, -1):
        for rest in part_lists(n - first, first):
            yield [first, *rest]


def test_multipartite_line_counts_match_the_oracle_up_to_n9():
    for n in range(3, 10):
        for parts in part_lists(n):
            for order in (parts, parts[::-1]):
                g = parse_graph(multipartite_text(order))
                masks = line_mask_set(graph_betweenness(g))
                assert (len(masks), (1 << n) - 1 in masks) == multipartite_lines(order)


# K_{s,s} with s >= 61 holds bare-pair edge lines whose masks hash alike
# (2**61 = 1 mod 2**61 - 1); the sorted count sees them as distinct.
AT_SCALE = [
    [100, 100], [150, 150], [1, 70, 80], [100, 1, 1, 120], [1, 1, 1, 50], [5] * 24,
]


@pytest.mark.parametrize("parts", AT_SCALE, ids=str)
def test_verify_counts_complete_multipartite_graphs_in_closed_form(tmp_path, parts):
    n = sum(parts)
    lines, universal = multipartite_lines(parts)
    argv = ["verify", "--kind", "graph"]
    code, out = run_on(tmp_path, argv, multipartite_text(parts))
    assert (code, out) == (EXIT_OK, (
        f"kind graph n {n}\nlines {lines} bound {n} "
        f"universal {'yes' if universal else 'no'}\n"
        "equality case: no\nextremal shape: no\nresult: ok\n"
    ))


@pytest.mark.parametrize(
    "parts", [[150, 150], [1, 70, 80], [100, 1, 1, 120], [5] * 24], ids=str
)
def test_verify_counts_weak_orders_in_closed_form(tmp_path, parts):
    # With no universal line the certificate is built and replayed too.
    n = sum(parts)
    lines, universal = multipartite_lines(parts)
    argv = ["verify", "--kind", "poset"]
    code, out = run_on(tmp_path, argv, weak_order_text(parts))
    assert (code, out) == (EXIT_OK, (
        f"kind poset n {n}\nlines {lines} bound {dbe_bound(n, len(parts))} "
        f"universal {'yes' if universal else 'no'}\n"
        "equality case: no\nextremal shape: no\nresult: ok\n"
    ))


@pytest.mark.parametrize(
    "parts", [[3, 4], [1, 2, 3], [1, 1, 2], [1, 1, 1, 1, 3]], ids=str
)
def test_lines_count_row_of_complete_multipartite_graphs(tmp_path, parts):
    argv = ["lines", "--kind", "graph"]
    code, out = run_on(tmp_path, argv, multipartite_text(parts))
    assert code == EXIT_OK
    assert out.splitlines()[-1] == f"count {multipartite_lines(parts)[0]}"
