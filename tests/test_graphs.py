from itertools import combinations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from linesys import (
    Graph,
    IdenticalPointsError,
    MalformedEdgeError,
    SizeError,
    UnknownPointError,
    all_lines,
    graph_betweenness,
    is_extremal_graph,
    line_of,
    pair_list,
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
    return Graph.from_edges(n, list(pair_list(n)))


def test_graph_construction_validates():
    with pytest.raises(IdenticalPointsError):
        Graph.from_edges(3, [(0, 0)])
    with pytest.raises(IdenticalPointsError):
        Graph([0b1])
    with pytest.raises(MalformedEdgeError):
        Graph([0b10, 0])
    with pytest.raises(UnknownPointError):
        Graph.from_edges(3, [(0, 3)])
    with pytest.raises(UnknownPointError):
        Graph([0b100, 0])
    g = Graph.from_edges(3, [(0, 1)])
    assert g.is_edge(1, 0) and not g.is_edge(1, 2)
    assert g.degree(0) == 1


def test_mask_round_trip():
    for mask in range(64):
        assert Graph.from_mask(4, mask).edge_mask() == mask


def test_triangle_free_graph_has_empty_relation():
    g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    rel = graph_betweenness(g)
    assert rel.is_empty()
    assert len(all_lines(rel)) == 6


def test_one_triangle_graph_has_four_lines():
    g = Graph.from_edges(4, [(0, 1), (0, 2), (1, 2)])
    assert len(all_lines(graph_betweenness(g))) == 4


def test_k4_minus_edge_line_sets_match_brute_force():
    edges = [(0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    g = Graph.from_edges(4, edges)
    lines = all_lines(graph_betweenness(g))
    assert set(lines) == brute_force_line_sets(4, edges)
    assert len(lines) == 4


def test_graph_betweenness_matches_explicit_triangle_triples():
    edges = [(0, 1), (0, 2), (1, 2), (2, 3), (1, 3)]
    g = Graph.from_edges(5, edges)
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
    pendant = Graph.from_edges(5, list(pair_list(4)) + [(0, 4)])
    assert is_extremal_graph(pendant)
    assert len(all_lines(graph_betweenness(pendant))) == 5
    isolated = Graph.from_edges(5, list(pair_list(4)))
    assert is_extremal_graph(isolated)
    c5 = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
    assert not is_extremal_graph(c5)
    with pytest.raises(SizeError):
        is_extremal_graph(Graph.from_edges(1, []))


def test_every_graph_on_two_or_three_vertices_but_the_triangle_is_extremal():
    for n in (2, 3):
        for mask in range(1 << len(pair_list(n))):
            assert is_extremal_graph(Graph.from_mask(n, mask)) == (mask != 0b111)


def test_two_neighbor_attachment_is_not_extremal():
    g = Graph.from_edges(5, list(pair_list(4)) + [(0, 4), (1, 4)])
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
        if not g.is_edge(a, b):
            assert line_of(rel, a, b) == 1 << a | 1 << b


@given(graph_strategy)
def test_line_sets_match_brute_force(case):
    n, mask = case
    g = Graph.from_mask(n, mask)
    assert set(all_lines(graph_betweenness(g))) == brute_force_line_sets(
        n, list(g.edges())
    )
