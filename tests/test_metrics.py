from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linesys import (
    DisconnectedError,
    Graph,
    MetricError,
    MetricSpace,
    SizeError,
    all_lines,
    graph_shortest_path_metric,
    line_mask_set,
    line_of,
    metric_betweenness,
    pair_list,
)


def menger_line_sets(dist):
    """Line member masks straight from the distance definition."""
    n = len(dist)
    lines = set()
    for a, b in combinations(range(n), 2):
        members = {a, b}
        for x in range(n):
            if x in (a, b):
                continue
            if (
                dist[a][x] + dist[x][b] == dist[a][b]
                or dist[x][a] + dist[a][b] == dist[x][b]
                or dist[a][b] + dist[b][x] == dist[a][x]
            ):
                members.add(x)
        lines.add(sum(1 << p for p in members))
    return lines


def c5():
    return Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])


def test_collinear_integers_produce_a_universal_line():
    m = MetricSpace([[0, 1, 2], [1, 0, 1], [2, 1, 0]])
    rel = metric_betweenness(m)
    assert line_of(rel, 0, 2) == 0b111
    assert (1 << 3) - 1 in line_mask_set(rel)


def test_uniform_metric_has_pair_lines_only():
    rows = [[int(i != j) for j in range(4)] for i in range(4)]
    rel = metric_betweenness(MetricSpace(rows))
    assert rel.is_empty()
    assert len(all_lines(rel)) == 6
    assert (1 << 4) - 1 not in line_mask_set(rel)


def test_five_cycle_metric_has_ten_lines_none_universal():
    m = graph_shortest_path_metric(c5())
    rel = metric_betweenness(m)
    lines = all_lines(rel)
    assert len(lines) == 10
    assert (1 << 5) - 1 not in line_mask_set(rel)
    assert {mask for mask, _ in lines} == menger_line_sets(m.dist)
    sizes = sorted(mask.bit_count() for mask, _ in lines)
    assert sizes == [3] * 5 + [4] * 5


def test_shortest_path_metric_examples():
    k3 = graph_shortest_path_metric(Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)]))
    assert all(k3.dist[i][j] == 1 for i, j in pair_list(3))
    p3 = graph_shortest_path_metric(Graph.from_edges(3, [(0, 1), (1, 2)]))
    assert p3.dist[0][2] == 2
    cycle = graph_shortest_path_metric(c5())
    assert {cycle.dist[i][j] for i, j in pair_list(5)} == {1, 2}


def test_disconnected_graph_is_rejected():
    with pytest.raises(DisconnectedError):
        graph_shortest_path_metric(Graph.from_edges(4, [(0, 1), (2, 3)]))


def test_metric_validation_cites_entries():
    with pytest.raises(MetricError, match=r"dist\[0\]\[0\]"):
        MetricSpace([[1, 1], [1, 0]])
    with pytest.raises(MetricError, match=r"dist\[0\]\[1\] != dist\[1\]\[0\]"):
        MetricSpace([[0, 1], [2, 0]])
    with pytest.raises(MetricError, match=r"must be positive"):
        MetricSpace([[0, 0], [0, 0]])
    with pytest.raises(MetricError, match=r"triangle inequality"):
        MetricSpace([[0, 1, 5], [1, 0, 1], [5, 1, 0]])


def test_floats_are_rejected_fractions_accepted():
    with pytest.raises(MetricError, match="exact rational"):
        MetricSpace([[0, 0.5], [0.5, 0]])
    half = Fraction(1, 2)
    m = MetricSpace([[0, half], [half, 0]])
    assert m.dist[0][1] == half


def test_metric_space_shape_validation():
    with pytest.raises(SizeError):
        MetricSpace([[0, 1, 2], [1, 0]])


connected_mask_strategy = st.integers(min_value=2, max_value=6).flatmap(
    lambda n: st.tuples(
        st.just(n), st.integers(min_value=0, max_value=(1 << len(pair_list(n))) - 1)
    )
)


@given(connected_mask_strategy)
@settings(max_examples=60, deadline=None)
def test_menger_symmetry_and_brute_force_agreement(case):
    n, mask = case
    g = Graph.from_mask(n, mask)
    try:
        m = graph_shortest_path_metric(g)
    except DisconnectedError:
        return
    rel = metric_betweenness(m)
    for a, x, b in rel.triples():
        assert rel.has(b, x, a)
        assert m.dist[a][x] + m.dist[x][b] == m.dist[a][b]
    assert {mask for mask, _ in all_lines(rel)} == menger_line_sets(m.dist)
