from itertools import combinations
from math import comb

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from linesys import (
    Graph,
    IdenticalPointsError,
    MalformedEdgeError,
    Poset,
    SizeError,
    UnknownPointError,
    comparability_graph,
    graph_line_count,
    graph_lines,
    is_extremal_graph,
    pair_list,
)

from linesys import graphs
from linesys.core import distinct_count, line_system
from linesys.graphs import graph_mask_planes, has_universal_line

from reference import (
    all_lines,
    graph_betweenness,
    graph_from_edges,
    line_entries,
    line_mask_set,
    line_of,
)


def brute_force_line_sets(n, edges):
    """Line member masks straight from the triangle definition; kept
    independent of the package's relation machinery."""
    edge_set = {frozenset(e) for e in edges}
    lines = set()
    for a, b in combinations(range(n), 2):
        members = {a, b}
        if frozenset((a, b)) in edge_set:
            for c in range(n):
                if c not in (a, b) and {frozenset((a, c)), frozenset((b, c))} <= edge_set:
                    members.add(c)
        lines.add(sum(1 << p for p in members))
    return lines


def complete_graph(n):
    return graph_from_edges(n, list(pair_list(n)))


def test_graph_construction_validates():
    with pytest.raises(IdenticalPointsError):
        Graph([0b1])
    with pytest.raises(MalformedEdgeError):
        Graph([0b10, 0])
    with pytest.raises(UnknownPointError):
        Graph([0b100, 0])
    g = graph_from_edges(3, [(0, 1)])
    assert g.adj == (0b010, 0b001, 0)


def test_mask_round_trip():
    for mask in range(64):
        assert Graph.from_mask(4, mask).edge_mask() == mask


def test_triangle_free_graph_has_empty_relation():
    g = graph_from_edges(4, [(0, 1), (1, 2), (2, 3)])
    rel = graph_betweenness(g)
    assert not any(rel.triples())
    assert len(all_lines(rel)) == 6


def test_one_triangle_graph_has_four_lines():
    g = graph_from_edges(4, [(0, 1), (0, 2), (1, 2)])
    assert len(all_lines(graph_betweenness(g))) == 4


def test_k4_minus_edge_line_sets_match_brute_force():
    edges = [(0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    g = graph_from_edges(4, edges)
    lines = all_lines(graph_betweenness(g))
    assert {mask for mask, _ in lines} == brute_force_line_sets(4, edges)
    assert len(lines) == 4


def test_bare_pair_comes_before_the_longer_line_it_begins():
    # The edge 23 has the non-adjacent common neighbors 0 and 1, so the
    # bare pair (0, 1) is a prefix of the line (0, 1, 2, 3).
    g = graph_from_edges(4, [(0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    assert list(graph_lines(g)) == [
        (0, [1], ((0, 1, 2, 3), [(2, 3)])),
        (0, [], ((0, 2, 3), [(0, 2), (0, 3)])),
        (0, [], None),
        (1, [], ((1, 2, 3), [(1, 2), (1, 3)])),
        (1, [], None),
        (2, [], None),
        (3, [], None),
    ]
    assert line_entries(graph_lines(g)) == [
        (0b0011, [(0, 1)]),
        (0b1111, [(2, 3)]),
        (0b1101, [(0, 2), (0, 3)]),
        (0b1110, [(1, 2), (1, 3)]),
    ]
    assert line_entries(graph_lines(g)) == all_lines(graph_betweenness(g))


def test_graph_betweenness_matches_explicit_triangle_triples():
    edges = [(0, 1), (0, 2), (1, 2), (2, 3), (1, 3)]
    g = graph_from_edges(5, edges)
    rel = graph_betweenness(g)
    edge_set = {frozenset(e) for e in edges}
    expected = set()
    for a, x, b in ((a, x, b) for a in range(5) for x in range(5) for b in range(5)):
        if len({a, x, b}) == 3 and all(
            frozenset(pair) in edge_set for pair in ((a, x), (x, b), (a, b))
        ):
            expected.add((a, x, b))
    assert set(rel.triples()) == expected


def test_extremal_shapes():
    pendant = graph_from_edges(5, list(pair_list(4)) + [(0, 4)])
    assert is_extremal_graph(pendant)
    assert len(all_lines(graph_betweenness(pendant))) == 5
    isolated = graph_from_edges(5, list(pair_list(4)))
    assert is_extremal_graph(isolated)
    c5 = graph_from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
    assert not is_extremal_graph(c5)
    with pytest.raises(SizeError):
        is_extremal_graph(graph_from_edges(1, []))


def test_every_graph_on_two_or_three_vertices_but_the_triangle_is_extremal():
    for n in (2, 3):
        for mask in range(1 << len(pair_list(n))):
            assert is_extremal_graph(Graph.from_mask(n, mask)) == (mask != 0b111)


def extremal_by_search(g):
    """The shape test without the edge-count exit: some vertex with at
    most one neighbor whose removal leaves a clique, or the empty graph
    on 3 vertices."""
    n, adj = g.size, g.adj
    if n == 3 and not any(adj):
        return True
    full = (1 << n) - 1
    return any(
        adj[v].bit_count() <= 1
        and all(u == v or (adj[u] | (1 << u) | (1 << v)) == full for u in range(n))
        for v in range(n)
    )


def every_graph(max_n):
    for n in range(2, max_n + 1):
        for mask in range(1 << len(pair_list(n))):
            yield Graph.from_mask(n, mask)


def test_edge_count_exit_keeps_the_extremal_shape_exhaustively_up_to_n6():
    for g in every_graph(6):
        assert is_extremal_graph(g) == extremal_by_search(g), (g.size, g.adj)


def test_trusted_mask_constructor_matches_the_validating_ones_up_to_n5():
    for n in range(1, 6):
        for mask in range(1 << len(pair_list(n))):
            g = Graph.from_mask(n, mask)
            edges = [pair for p, pair in enumerate(pair_list(n)) if mask >> p & 1]
            assert g.size == n
            assert g.adj == Graph(g.adj).adj == graph_from_edges(n, edges).adj
    with pytest.raises(SizeError):
        Graph.from_mask(0, 0)


def test_mask_constructor_rejects_masks_beyond_the_pairs():
    # n = 3 has three pairs, so the masks are 0..7.
    assert Graph.from_mask(3, 7).adj == complete_graph(3).adj
    for n, mask in [(3, 8), (3, -1), (1, 1), (4, 1 << 6), (4, -(1 << 6))]:
        with pytest.raises(MalformedEdgeError):
            Graph.from_mask(n, mask)


def test_graph_lines_match_the_generic_evaluator_up_to_n6():
    checked = 0
    for g in every_graph(6):
        assert line_entries(graph_lines(g)) == all_lines(graph_betweenness(g)), (
            g.size, g.adj,
        )
        checked += 1
    assert checked == 33_866
    with pytest.raises(SizeError):
        graph_lines(Graph([0]))


def generic_line_count(g):
    lines = line_mask_set(graph_betweenness(g))
    return len(lines), (1 << g.size) - 1 in lines


def test_direct_line_count_matches_the_generic_evaluator_up_to_n6():
    for g in every_graph(6):
        assert graph_line_count(g) == generic_line_count(g), (g.size, g.adj)


def test_universal_check_matches_the_generic_evaluator_up_to_n6():
    # The O(n) rule and the flag graph_line_count reads from its edge
    # lines are two definitions; both must give the relation's answer.
    for g in every_graph(6):
        assert has_universal_line(g.adj) == generic_line_count(g)[1], (g.size, g.adj)


def test_edgeless_graph_on_two_vertices_has_a_universal_bare_pair():
    # Its one line is the non-edge {0, 1}: the whole ground set.
    g = graph_from_edges(2, [])
    assert graph_line_count(g) == generic_line_count(g) == (1, True)
    assert graph_line_count(graph_from_edges(2, [(0, 1)])) == (1, True)
    with pytest.raises(SizeError):
        graph_line_count(Graph([0]))


# Only the line of an edge in a triangle can repeat, so only those
# lines are held: by graph_line_count before it counts them, and by
# line_system, which graph_lines hands them to.
TRIANGLE_FREE = {
    "K33": graph_from_edges(6, [(a, b) for a in range(3) for b in range(3, 6)]),
    "C5": graph_from_edges(5, [(v, (v + 1) % 5) for v in range(5)]),
    # The comparability graph of the height-2 poset 0, 1, 2 < 3, 4.
    "height-2-poset": comparability_graph(
        Poset.from_covers(5, [(a, b) for a in range(3) for b in (3, 4)])
    ),
    "empty": graph_from_edges(4, []),
}


def held_lines(monkeypatch, g):
    """The masks graph_line_count counts and the pairs graph_lines
    hands to line_system, recorded by spies on both."""
    counted, handed = [], []

    def count_spy(masks):
        counted.extend(masks)
        return distinct_count(masks)

    def system_spy(n, pair_lines):
        # line_system takes the point count and only the held lines.
        assert n == g.size
        pair_lines = list(pair_lines)
        handed.extend(pair for _, pair in pair_lines)
        return line_system(n, pair_lines)

    monkeypatch.setattr(graphs, "distinct_count", count_spy)
    monkeypatch.setattr(graphs, "line_system", system_spy)
    count = graph_line_count(g)
    entries = line_entries(graph_lines(g))
    assert count == generic_line_count(g)
    assert entries == all_lines(graph_betweenness(g))
    return counted, handed


@pytest.mark.parametrize("name", TRIANGLE_FREE)
def test_a_triangle_free_graph_holds_no_line(name, monkeypatch):
    assert held_lines(monkeypatch, TRIANGLE_FREE[name]) == ([], [])


def test_every_edge_of_k4_is_in_a_triangle_and_holds_its_line(monkeypatch):
    counted, handed = held_lines(monkeypatch, graph_from_edges(4, pair_list(4)))
    assert counted == [0b1111] * 6
    assert handed == list(pair_list(4))


def test_two_neighbor_attachment_is_not_extremal():
    g = graph_from_edges(5, list(pair_list(4)) + [(0, 4), (1, 4)])
    assert not is_extremal_graph(g)


graph_strategy = st.integers(min_value=2, max_value=7).flatmap(
    lambda n: st.tuples(
        st.just(n), st.integers(min_value=0, max_value=(1 << len(pair_list(n))) - 1)
    )
)


@given(graph_strategy)
def test_non_edges_give_pair_lines(case):
    n, mask = case
    g = Graph.from_mask(n, mask)
    rel = graph_betweenness(g)
    for a, b in pair_list(n):
        if not g.adj[a] >> b & 1:
            assert line_of(rel, a, b) == 1 << a | 1 << b


@given(graph_strategy)
def test_line_sets_match_brute_force(case):
    n, mask = case
    g = Graph.from_mask(n, mask)
    lines = all_lines(graph_betweenness(g))
    edges = [(a, b) for a, b in pair_list(n) if g.adj[a] >> b & 1]
    assert {m for m, _ in lines} == brute_force_line_sets(n, edges)


# Large graphs of every density: two random masks give density 1/4
# (and), 1/2 (one mask) or 3/4 (or); hypothesis also tries the empty
# and the complete graph.
large_graph_strategy = st.integers(min_value=2, max_value=60).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.integers(min_value=0, max_value=(1 << len(pair_list(n))) - 1),
        st.integers(min_value=0, max_value=(1 << len(pair_list(n))) - 1),
        st.sampled_from(("and", "one", "or")),
    )
)


@given(large_graph_strategy)
def test_direct_line_count_matches_the_generic_evaluator(case):
    n, first, second, combine = case
    mask = {"and": first & second, "one": first, "or": first | second}[combine]
    g = Graph.from_mask(n, mask)
    assert graph_line_count(g) == generic_line_count(g)


@given(large_graph_strategy)
def test_graph_lines_match_the_generic_evaluator(case):
    n, first, second, combine = case
    mask = {"and": first & second, "one": first, "or": first | second}[combine]
    g = Graph.from_mask(n, mask)
    assert line_entries(graph_lines(g)) == all_lines(graph_betweenness(g))


@st.composite
def mask_ranges(draw):
    """n = 7 or 8 and any range lo < hi of its edge masks, up to a little
    over 1024 masks long."""
    n = draw(st.sampled_from((7, 8)))
    total = 1 << comb(n, 2)
    lo = draw(st.integers(0, total - 1))
    return n, lo, draw(st.integers(lo + 1, min(total, lo + 1100)))


@settings(deadline=None)
@given(mask_ranges())
@example((7, 0, 1100))
@example((8, (1 << 28) - 700, 1 << 28))
def test_mask_planes_match_the_per_graph_counters(case):
    n, lo, hi = case
    duplicates, universal, shape = graph_mask_planes(n, lo, hi)
    assert not (universal | shape) >> hi - lo
    assert not any(plane >> hi - lo for plane in duplicates)
    for i, mask in enumerate(range(lo, hi)):
        g = Graph.from_mask(n, mask)
        repeats = sum((plane >> i & 1) << j for j, plane in enumerate(duplicates))
        assert (comb(n, 2) - repeats, bool(universal >> i & 1)) == graph_line_count(g)
        assert bool(shape >> i & 1) == is_extremal_graph(g), mask
