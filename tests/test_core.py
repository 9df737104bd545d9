from itertools import permutations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from linesys import (
    IdenticalPointsError,
    MalformedEdgeError,
    SizeError,
    UnknownPointError,
    bits_of,
    hypergraph_lines,
    pair_list,
)
from linesys.core import WIDE_BITS, set_bits
from linesys.graphs import Graph
from linesys.metrics import MetricSpace
from linesys.posets import Poset

from reference import (
    BetweennessRelation,
    all_lines,
    graph_betweenness,
    graph_from_edges,
    line_entries,
    line_mask_set,
    line_of,
    poset_betweenness,
)


def empty_relation(n):
    return BetweennessRelation(n, [])


def mask_of(points):
    return sum(1 << p for p in points)


def triangle_plus_isolated():
    return graph_betweenness(graph_from_edges(4, [(0, 1), (0, 2), (1, 2)]))


# --- ground sets -----------------------------------------------------------

def test_ground_set_rejects_empty():
    with pytest.raises(SizeError):
        BetweennessRelation(0, [])
    for structure in (Graph, Poset, MetricSpace):
        with pytest.raises(SizeError):
            structure([])


def test_single_point_ground_set_allowed_but_line_ops_reject():
    rel = empty_relation(1)
    with pytest.raises(SizeError):
        all_lines(rel)
    with pytest.raises(SizeError):
        line_mask_set(rel)


# --- line_of ---------------------------------------------------------------

def test_line_of_empty_relation_is_the_pair():
    rel = empty_relation(3)
    assert line_of(rel, 0, 1) == 0b011


def test_line_of_chain_poset_includes_the_middle():
    p = Poset.from_covers(3, [(0, 1), (1, 2)])
    rel = poset_betweenness(p)
    assert line_of(rel, 0, 2) == 0b111


def test_line_of_triangle_with_isolated_vertex():
    rel = triangle_plus_isolated()
    assert line_of(rel, 0, 1) == 0b0111


def test_line_of_validates_points():
    rel = empty_relation(3)
    with pytest.raises(IdenticalPointsError):
        line_of(rel, 1, 1)
    with pytest.raises(UnknownPointError):
        line_of(rel, 0, 3)


# --- all_lines -------------------------------------------------------------

def test_all_lines_empty_relation_gives_all_pairs():
    lines = all_lines(empty_relation(4))
    assert len(lines) == 6
    assert all(mask.bit_count() == 2 for mask, _ in lines)


def test_all_lines_triangle_plus_isolated_gives_four():
    lines = all_lines(triangle_plus_isolated())
    assert len(lines) == 4
    assert {mask for mask, _ in lines} == {0b0111, 0b1001, 0b1010, 0b1100}


def test_all_lines_five_cycle_gives_ten_pairs():
    g = graph_from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
    assert len(all_lines(graph_betweenness(g))) == 10


def test_all_lines_entries_are_sorted_and_partition_the_pairs():
    lines = all_lines(triangle_plus_isolated())
    ordered = [tuple(bits_of(mask)) for mask, _ in lines]
    assert ordered == sorted(ordered)
    generators = [g for _, pairs in lines for g in pairs]
    assert sorted(generators) == sorted(pair_list(4))


def test_all_lines_rejects_single_point():
    with pytest.raises(SizeError):
        all_lines(empty_relation(1))


# --- universal lines -------------------------------------------------------

def test_universal_line_complete_graph():
    g = graph_from_edges(4, list(pair_list(4)))
    rel = graph_betweenness(g)
    assert line_of(rel, 0, 1) == 0b1111
    assert (1 << 4) - 1 in line_mask_set(rel)


def test_universal_line_empty_relation_is_none_beyond_two_points():
    assert (1 << 3) - 1 not in line_mask_set(empty_relation(3))
    assert (1 << 5) - 1 not in line_mask_set(empty_relation(5))


def test_universal_line_chain_poset():
    p = Poset.from_covers(4, [(0, 1), (1, 2), (2, 3)])
    assert (1 << 4) - 1 in line_mask_set(poset_betweenness(p))


def test_two_point_pair_line_is_universal():
    assert line_mask_set(empty_relation(2)) == {(1 << 2) - 1}


# --- relation construction -------------------------------------------------

def test_relation_symmetrizes_outer_pair():
    rel = BetweennessRelation(3, [(0, 1, 2)])
    assert rel.has(0, 1, 2) and rel.has(2, 1, 0)
    assert not rel.has(1, 0, 2)


def test_relation_rejects_degenerate_and_unknown_triples():
    with pytest.raises(IdenticalPointsError):
        BetweennessRelation(3, [(0, 0, 2)])
    with pytest.raises(UnknownPointError):
        BetweennessRelation(3, [(0, 1, 3)])


def test_relation_triples_iteration_lists_both_orientations():
    rel = BetweennessRelation(4, [(0, 1, 2), (0, 2, 3)])
    triples = set(rel.triples())
    assert triples == {(0, 1, 2), (2, 1, 0), (0, 2, 3), (3, 2, 0)}


# --- hypergraphs -----------------------------------------------------------

def test_hypergraph_single_edge():
    assert line_entries(hypergraph_lines(3, [{0, 1, 2}])) == [
        (0b111, [(0, 1), (0, 2), (1, 2)])
    ]


def test_hypergraph_no_edges_all_pair_lines():
    assert len(line_entries(hypergraph_lines(4, []))) == 6


def test_hypergraph_two_edges_sharing_a_pair_make_a_universal_line():
    lines = dict(line_entries(hypergraph_lines(4, [{0, 1, 2}, {0, 1, 3}])))
    assert lines[0b1111] == [(0, 1)]


def test_hypergraph_edge_is_fully_symmetric():
    # Every vertex of an edge lies between the other two, so each pair
    # of the edge generates the whole edge, in whatever order it is given.
    for edge in permutations((0, 1, 2)):
        assert line_entries(hypergraph_lines(4, [edge])) == [
            (0b0111, [(0, 1), (0, 2), (1, 2)]),
            (0b1001, [(0, 3)]),
            (0b1010, [(1, 3)]),
            (0b1100, [(2, 3)]),
        ]


def test_hypergraph_rejects_malformed_edges():
    with pytest.raises(MalformedEdgeError):
        hypergraph_lines(4, [(0, 1)])
    with pytest.raises(MalformedEdgeError):
        hypergraph_lines(4, [(0, 1, 1)])
    with pytest.raises(MalformedEdgeError):
        hypergraph_lines(4, [(0, 1, 4)])
    with pytest.raises(SizeError):
        hypergraph_lines(1, [])


def edge_triples(edges):
    """Each 3-edge's three betweenness triples, one per middle vertex."""
    return [t for p, q, r in edges for t in ((q, p, r), (p, q, r), (p, r, q))]


@st.composite
def hypergraphs(draw):
    """Up to 3n random 3-edges on n <= 12 points, some of them repeated."""
    n = draw(st.integers(min_value=3, max_value=12))
    edge = st.lists(st.integers(0, n - 1), min_size=3, max_size=3, unique=True)
    edges = draw(st.lists(edge, max_size=3 * n))
    repeats = draw(st.lists(st.sampled_from(edges), max_size=4)) if edges else []
    return n, edges + repeats


@given(hypergraphs())
@settings(max_examples=200, deadline=None)
def test_hypergraph_lines_match_the_generic_evaluator(case):
    n, edges = case
    assert line_entries(hypergraph_lines(n, edges)) == all_lines(
        BetweennessRelation(n, edge_triples(edges))
    )


# --- properties ------------------------------------------------------------

triples_strategy = st.integers(min_value=2, max_value=7).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(
            st.tuples(
                st.integers(0, n - 1), st.integers(0, n - 1), st.integers(0, n - 1)
            ).filter(lambda t: len(set(t)) == 3),
            max_size=30,
        ),
    )
)


@given(triples_strategy)
def test_lines_are_symmetric_and_contain_their_generator(case):
    n, triples = case
    rel = BetweennessRelation(n, triples)
    for a, b in pair_list(n):
        forward = line_of(rel, a, b)
        assert forward == line_of(rel, b, a)
        assert forward & mask_of((a, b)) == mask_of((a, b))


@given(triples_strategy)
def test_line_of_matches_the_definition(case):
    # line(a, b) = {a, b} | {x : (x,a,b), (a,x,b) or (a,b,x) in relation},
    # evaluated on the symmetrized input triples, not on the matrices.
    n, triples = case
    rel = BetweennessRelation(n, triples)
    stored = set(triples) | {(b, x, a) for a, x, b in triples}
    for a in range(n):
        for b in range(n):
            if a == b:
                continue
            members = {a, b} | {
                x
                for x in range(n)
                if {(x, a, b), (a, x, b), (a, b, x)} & stored
            }
            assert line_of(rel, a, b) == mask_of(members)


@given(triples_strategy)
def test_line_count_at_most_pair_count(case):
    n, triples = case
    rel = BetweennessRelation(n, triples)
    assert len(all_lines(rel)) <= len(pair_list(n))


@given(triples_strategy)
@settings(max_examples=50)
def test_rebuilding_entries_from_generators_reproduces_members(case):
    n, triples = case
    rel = BetweennessRelation(n, triples)
    lines = all_lines(rel)
    for mask, pairs in lines:
        for a, b in pairs:
            assert line_of(rel, a, b) == mask
        assert pairs == sorted(pairs)
    generators = sorted(g for _, pairs in lines for g in pairs)
    assert generators == list(pair_list(n))


@given(triples_strategy)
def test_universal_detection_agrees_with_full_member_sets(case):
    n, triples = case
    rel = BetweennessRelation(n, triples)
    expected = any(
        all(line_of(rel, a, b) >> p & 1 for p in range(n)) for a, b in pair_list(n)
    )
    assert ((1 << n) - 1 in line_mask_set(rel)) == expected


@given(triples_strategy)
def test_line_mask_set_matches_all_lines(case):
    n, triples = case
    rel = BetweennessRelation(n, triples)
    masks = line_mask_set(rel)
    lines = all_lines(rel)
    assert len(masks) == len(lines)
    assert {mask for mask, _ in lines} == masks


# Masks of every width up to three times the switch point, so both the
# shift walk (below WIDE_BITS bits) and the byte walk are drawn.
masks_across_the_switch = st.integers(0, 3 * WIDE_BITS).flatmap(
    lambda width: st.integers(0, (1 << width) - 1)
)


@given(masks_across_the_switch)
@example(0)
@example((1 << WIDE_BITS - 1) - 1)
@example(1 << WIDE_BITS - 1)
@example((1 << WIDE_BITS) - 1)
@example(1 << WIDE_BITS)
@example((1 << WIDE_BITS + 1) - 1)
@settings(max_examples=300)
def test_set_bits_lists_the_bits_of_bits_of_on_both_sides_of_the_switch(mask):
    assert list(set_bits(mask)) == list(bits_of(mask))
