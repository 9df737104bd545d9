from fractions import Fraction
from itertools import combinations
from math import comb

import pytest
from hypothesis import example, given, settings
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
    metric_lines,
    metric_report,
    pair_list,
)
from linesys.metrics import metric_mask_planes

from line_entries import line_entries


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
    assert not any(rel.triples())
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


# --- metric_lines against the generic evaluator -----------------------------

@st.composite
def rational_metrics(draw):
    """Shortest paths over random rational weights on every pair of
    n <= 9 points; small integer weights make many collinear triples."""
    n = draw(st.integers(min_value=2, max_value=9))
    weight = st.one_of(
        st.integers(1, 3).map(Fraction),
        st.fractions(min_value=1, max_value=6, max_denominator=3),
    )
    dist = [[Fraction(0)] * n for _ in range(n)]
    for a, b in combinations(range(n), 2):
        dist[a][b] = dist[b][a] = draw(weight)
    for k in range(n):
        for i in range(n):
            for j in range(n):
                dist[i][j] = min(dist[i][j], dist[i][k] + dist[k][j])
    return MetricSpace(dist)


@given(rational_metrics())
@settings(max_examples=200, deadline=None)
def test_metric_lines_match_the_generic_evaluator(m):
    lines = line_entries(metric_lines(m))
    assert lines == all_lines(metric_betweenness(m))
    masks = {mask for mask, _ in lines}
    assert masks == menger_line_sets(m.dist)
    # verify --kind metric counts the same runs.
    report = metric_report(m, 0)
    assert report.line_count == len(lines)
    assert report.has_universal == ((1 << m.size) - 1 in masks)


def test_metric_lines_of_graph_metrics_match_the_generic_evaluator():
    for n in range(2, 6):
        for mask in range(1 << len(pair_list(n))):
            try:
                m = graph_shortest_path_metric(Graph.from_mask(n, mask))
            except DisconnectedError:
                continue
            assert line_entries(metric_lines(m)) == all_lines(
                metric_betweenness(m)
            ), (n, mask)


# --- metric_mask_planes against the generic evaluator -----------------------

def oracle_line_count(g):
    """(number of lines, universal line present) through a validated
    metric space and the generic relation evaluator."""
    masks = line_mask_set(metric_betweenness(MetricSpace(graph_shortest_path_metric(g).dist)))
    return len(masks), (1 << g.size) - 1 in masks


def oracle_counts(n, lo, hi):
    """``oracle_line_count`` of every edge mask lo..hi-1, None where the
    graph is disconnected."""
    counts = []
    for mask in range(lo, hi):
        try:
            counts.append(oracle_line_count(Graph.from_mask(n, mask)))
        except DisconnectedError:
            counts.append(None)
    return counts


def plane_counts(n, lo, hi):
    """(number of lines, universal line present) of every edge mask
    lo..hi-1 read off ``metric_mask_planes``, None where its connected
    bit is clear; such a mask sets no other bit, and no plane has a bit
    past the range."""
    duplicates, universal, connected = metric_mask_planes(n, lo, hi)
    width = hi - lo
    assert not (universal | connected) >> width
    assert not any(plane >> width for plane in duplicates)
    counts = []
    for i in range(width):
        repeats = sum((plane >> i & 1) << j for j, plane in enumerate(duplicates))
        if connected >> i & 1:
            counts.append((comb(n, 2) - repeats, bool(universal >> i & 1)))
        else:
            assert (repeats, universal >> i & 1) == (0, 0)
            counts.append(None)
    return counts


def kernel_line_count(g):
    """The kernel's count for one graph: the one-mask chunk of its edge
    mask, so graphs of any size are counted."""
    mask = g.edge_mask()
    (count,) = plane_counts(g.size, mask, mask + 1)
    if count is None:
        raise DisconnectedError("the kernel's connected bit is clear")
    return count


def floyd_warshall(g):
    n = g.size
    far = n
    dist = [[0 if i == j else 1 if g.adj[i] >> j & 1 else far for j in range(n)]
            for i in range(n)]
    for k in range(n):
        for i in range(n):
            for j in range(n):
                dist[i][j] = min(dist[i][j], dist[i][k] + dist[k][j])
    return dist


def test_graph_metric_line_count_matches_the_oracle_on_every_connected_graph():
    # Every mask of n = 2..6 in one chunk: count, universal and connected.
    connected = 0
    for n in range(2, 7):
        total = 1 << len(pair_list(n))
        expected = oracle_counts(n, 0, total)
        assert plane_counts(n, 0, total) == expected, n
        connected += total - expected.count(None)
    # OEIS A001187: connected labeled graphs on 2..6 vertices.
    assert connected == 1 + 4 + 38 + 728 + 26704


@st.composite
def mask_ranges(draw):
    """n = 7 or 8 and any range lo < hi of its edge masks, up to 4096
    masks long."""
    n = draw(st.sampled_from((7, 8)))
    total = 1 << comb(n, 2)
    lo = draw(st.integers(0, total - 1))
    return n, lo, draw(st.integers(lo + 1, min(total, lo + 4096)))


@settings(max_examples=20, deadline=None)
@given(mask_ranges())
@example((7, 0, 4096))
@example((8, (1 << 28) - 700, 1 << 28))
def test_metric_mask_planes_match_the_oracle_on_mask_ranges(case):
    assert plane_counts(*case) == oracle_counts(*case)


@st.composite
def connected_graphs(draw):
    """A random connected graph on up to 12 vertices: a random spanning
    path (so the diameter can be n - 1), optionally closed to a cycle,
    plus a few random chords."""
    n = draw(st.integers(min_value=2, max_value=12))
    order = draw(st.permutations(range(n)))
    edges = set(zip(order, order[1:]))
    if n > 2 and draw(st.booleans()):
        edges.add((order[-1], order[0]))
    chords = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                           max_size=2 * n))
    edges |= {(a, b) for a, b in chords if a != b}
    edges = {(min(a, b), max(a, b)) for a, b in edges}
    return Graph.from_edges(n, sorted(edges))


@given(connected_graphs())
@settings(max_examples=150, deadline=None)
def test_graph_metric_line_count_matches_the_oracle_on_random_connected_graphs(g):
    assert graph_shortest_path_metric(g).dist == tuple(map(tuple, floyd_warshall(g)))
    assert kernel_line_count(g) == oracle_line_count(g)


@given(connected_graphs(), st.integers(min_value=1, max_value=4))
@settings(max_examples=60, deadline=None)
def test_graph_metric_line_count_rejects_disconnected_graphs(g, isolated):
    # Add isolated vertices to a connected graph.
    n = g.size + isolated
    h = Graph(g.adj + (0,) * isolated)
    with pytest.raises(DisconnectedError):
        kernel_line_count(h)
    with pytest.raises(DisconnectedError):
        graph_shortest_path_metric(h)


def test_graph_metric_line_count_on_long_paths_and_cycles():
    for n in range(2, 13):
        path = Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])
        # A path is one line through every point.
        assert kernel_line_count(path) == oracle_line_count(path) == (1, True)
        if n >= 3:
            cycle = Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])
            assert kernel_line_count(cycle) == oracle_line_count(cycle)
