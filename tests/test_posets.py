from itertools import combinations, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linesys import (
    CycleError,
    DomainError,
    Graph,
    Poset,
    SizeError,
    UnknownPointError,
    bits_of,
    comparability_graph,
    graph_line_count,
    graph_lines,
    maximum_chain_through_levels,
    pair_list,
    poset_report,
)

from reference import (
    all_lines,
    enumerate_posets,
    graph_betweenness,
    is_extremal_poset,
    line_entries,
    line_mask_set,
    line_of,
    poset_betweenness,
)


def less(p, a, b):
    """a < b in p, read from its order rows."""
    return bool(p.succ[a] >> b & 1)


def comparable(p, a, b):
    return less(p, a, b) or less(p, b, a)


def relation_pairs(p):
    """All ordered pairs (a, b) with a < b in p."""
    return {(a, b) for a in range(p.size) for b in bits_of(p.succ[a])}


def reachable_pairs(n, covers):
    """Strict reachability by depth-first search; an oracle for the
    closure computed inside Poset.from_covers."""
    adjacency = {v: set() for v in range(n)}
    for a, b in covers:
        adjacency[a].add(b)
    pairs = set()
    for start in range(n):
        stack = list(adjacency[start])
        seen = set()
        while stack:
            v = stack.pop()
            if v in seen:
                continue
            seen.add(v)
            stack.extend(adjacency[v])
        pairs.update((start, v) for v in seen)
    return pairs


# Index-increasing random cover sets are always acyclic, which makes a
# convenient poset generator.
poset_strategy = st.integers(min_value=1, max_value=7).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
                lambda p: p[0] < p[1]
            ),
            max_size=12,
        ),
    )
)


def test_chain_from_covers():
    p = Poset.from_covers(3, [(0, 1), (1, 2)])
    assert p.height == 3
    assert p.levels == (1, 2, 3)
    assert less(p, 0, 2)


def test_antichain_from_no_covers():
    p = Poset.from_covers(4, [])
    assert p.height == 1
    assert p.levels == (1, 1, 1, 1)


def test_branching_example_closure_levels_and_comparability():
    covers = [(0, 1), (1, 2), (3, 2)]
    p = Poset.from_covers(4, covers)
    assert relation_pairs(p) == reachable_pairs(4, covers)
    assert p.levels == (1, 2, 3, 1)
    assert p.height == 3
    assert [u for u in range(4) if comparable(p, 3, u)] == [2]


def test_cycles_and_bad_points_are_rejected():
    with pytest.raises(CycleError):
        Poset.from_covers(3, [(0, 1), (1, 0)])
    with pytest.raises(CycleError):
        Poset.from_covers(3, [(0, 1), (1, 2), (2, 0)])
    with pytest.raises(CycleError):
        Poset.from_covers(3, [(1, 1)])
    with pytest.raises(UnknownPointError):
        Poset.from_covers(3, [(0, 5)])


@pytest.mark.parametrize("a, b", [(-1, 1), (1, -1), (0, 7), (7, 0), (3, 3)])
def test_covers_with_points_outside_the_ground_set_are_rejected(a, b):
    with pytest.raises(UnknownPointError):
        Poset.from_covers(3, [(1, 2), (a, b)])


def test_full_relation_input_matches_cover_input():
    covers = [(0, 1), (1, 2), (3, 2)]
    p_cover = Poset.from_covers(4, covers)
    p_full = Poset.from_covers(4, sorted(relation_pairs(p_cover)))
    assert p_full.succ == p_cover.succ


def test_chain_betweenness_triples():
    p = Poset.from_covers(3, [(0, 1), (1, 2)])
    rel = poset_betweenness(p)
    assert set(rel.triples()) == {(0, 1, 2), (2, 1, 0)}
    assert line_of(rel, 0, 2) == 0b0111


def test_antichain_has_pair_lines_only():
    p = Poset.from_covers(3, [])
    rel = poset_betweenness(p)
    assert not any(rel.triples())
    assert len(all_lines(rel)) == 3


def test_branching_example_line_excludes_the_side_point():
    p = Poset.from_covers(4, [(0, 1), (1, 2), (3, 2)])
    rel = poset_betweenness(p)
    assert line_of(rel, 0, 2) == 0b0111


def test_poset_betweenness_matches_explicit_triples():
    # The definitional relation builds certificates and is the reference
    # of acceptance criterion 7, so it is checked on every poset with
    # n <= 4 and on one branching 5-point example.
    posets = [p for n in range(1, 5) for p in enumerate_posets(n)]
    posets.append(Poset.from_covers(5, [(0, 1), (1, 2), (3, 2), (3, 4)]))
    for p in posets:
        expected = set()
        for a, x, b in permutations(range(p.size), 3):
            if (less(p, a, x) and less(p, x, b)) or (
                less(p, b, x) and less(p, x, a)
            ):
                expected.add((a, x, b))
        assert set(poset_betweenness(p).triples()) == expected


def test_mirsky_partition_examples():
    chain = Poset.from_covers(3, [(0, 1), (1, 2)])
    assert chain.layers == (0b001, 0b010, 0b100)
    antichain = Poset.from_covers(4, [])
    assert antichain.layers == (0b1111,)
    branching = Poset.from_covers(4, [(0, 1), (1, 2), (3, 2)])
    assert branching.layers == (0b1001, 0b010, 0b100)


def test_maximum_chain_examples():
    assert maximum_chain_through_levels(
        Poset.from_covers(3, [(0, 1), (1, 2)])
    ) == (0, 1, 2)
    assert maximum_chain_through_levels(
        Poset.from_covers(4, [(0, 1), (1, 2), (3, 2)])
    ) == (0, 1, 2)
    assert maximum_chain_through_levels(Poset.from_covers(3, [])) == (0,)


def test_comparability_graph_examples():
    chain = Poset.from_covers(3, [(0, 1), (1, 2)])
    assert comparability_graph(chain).edge_mask() == (1 << 3) - 1
    antichain = Poset.from_covers(4, [])
    assert comparability_graph(antichain).edge_mask() == 0


def test_comparability_graph_of_branching_example_and_line_agreement():
    p = Poset.from_covers(4, [(0, 1), (1, 2), (3, 2)])
    g = comparability_graph(p)
    assert g.adj == (0b0110, 0b0101, 0b1011, 0b0100)
    assert {m for m, _ in all_lines(poset_betweenness(p))} == {
        m for m, _ in all_lines(graph_betweenness(g))
    }


def test_comparability_graph_rows_pass_validation_up_to_n5():
    for n in range(1, 6):
        for p in enumerate_posets(n):
            g = comparability_graph(p)
            assert g.size == n
            assert g.adj == Graph(g.adj).adj
            assert g.adj == tuple(
                sum(1 << u for u in range(n) if comparable(p, v, u)) for v in range(n)
            )


def test_poset_lines_equal_the_order_evaluator_up_to_n5():
    checked = 0
    for n in range(2, 6):
        for p in enumerate_posets(n):
            lines = line_entries(graph_lines(comparability_graph(p)))
            assert lines == all_lines(poset_betweenness(p)), (n, p.succ)
            checked += 1
    assert checked == 4_472


def test_extremal_poset_shapes():
    chain_plus_isolated = Poset.from_covers(4, [(0, 1), (1, 2)])
    assert is_extremal_poset(chain_plus_isolated)
    chain_plus_top_attachment = Poset.from_covers(4, [(0, 1), (1, 2), (3, 2)])
    assert is_extremal_poset(chain_plus_top_attachment)
    # attached by the bottom, forcing two comparabilities
    two_comparable = Poset.from_covers(4, [(0, 1), (1, 2), (3, 0)])
    assert not is_extremal_poset(two_comparable)
    antichain = Poset.from_covers(4, [])
    assert not is_extremal_poset(antichain)
    with pytest.raises(SizeError):
        is_extremal_poset(Poset([0]))


def test_extremal_poset_matches_its_definition_exhaustively_up_to_n5():
    # The definition on the order itself: some point is comparable with
    # at most one other, and all the remaining points are pairwise
    # comparable.  The 3-point antichain is the one poset where the
    # comparability-graph shape (the empty graph on 3 vertices) says more.
    with_universal = 0
    for n in range(2, 6):
        full = (1 << n) - 1
        for p in enumerate_posets(n):
            expected = any(
                sum(comparable(p, v, u) for u in range(n) if u != v) <= 1
                and all(
                    comparable(p, a, b)
                    for a, b in combinations([u for u in range(n) if u != v], 2)
                )
                for v in range(n)
            ) or (n == 3 and p.height == 1)
            assert is_extremal_poset(p) == expected
            with_universal += full in line_mask_set(poset_betweenness(p))
    assert with_universal > 0


@given(poset_strategy)
@settings(max_examples=80)
def test_levels_satisfy_the_longest_chain_recurrence(case):
    n, covers = case
    p = Poset.from_covers(n, covers)
    for v in range(n):
        below = [p.levels[u] for u in range(n) if less(p, u, v)]
        assert p.levels[v] == (max(below) + 1 if below else 1)


def test_mirsky_invariant_exhaustive_up_to_n6():
    for n in range(1, 7):
        for p in enumerate_posets(n):
            chain = maximum_chain_through_levels(p)
            assert len(p.layers) == len(chain) == p.height
            for i, c in enumerate(chain):
                assert p.levels[c] == i + 1


@given(poset_strategy)
@settings(max_examples=80)
def test_mirsky_layer_count_equals_chain_length_equals_height(case):
    n, covers = case
    p = Poset.from_covers(n, covers)
    layers = p.layers
    chain = maximum_chain_through_levels(p)
    assert len(layers) == len(chain) == p.height
    assert sorted(v for layer in layers for v in bits_of(layer)) == list(range(n))
    for layer in layers:
        for a, b in combinations(bits_of(layer), 2):
            assert not comparable(p, a, b)
    for i, c in enumerate(chain):
        assert p.levels[c] == i + 1
        if i:
            assert less(p, chain[i - 1], c)


@given(poset_strategy)
@settings(max_examples=60)
def test_poset_lines_equal_comparability_graph_lines(case):
    n, covers = case
    p = Poset.from_covers(n, covers)
    if n < 2:
        return
    poset_lines = {m for m, _ in all_lines(poset_betweenness(p))}
    graph_lines = {
        m for m, _ in all_lines(graph_betweenness(comparability_graph(p)))
    }
    assert poset_lines == graph_lines
    # The direct counter on the comparability graph, which counts every
    # poset in the sweeps, against the generic evaluator on the order.
    s = line_mask_set(poset_betweenness(p))
    full = (1 << n) - 1
    assert graph_line_count(comparability_graph(p)) == (len(s), full in s)


def test_poset_report_count_matches_the_generic_evaluator_up_to_n5():
    reported = 0
    for n in range(2, 6):
        full = (1 << n) - 1
        for p in enumerate_posets(n):
            if p.height == 1:
                with pytest.raises(DomainError, match="height >= 2"):
                    poset_report(p)
                continue
            report, _ = poset_report(p)
            s = line_mask_set(poset_betweenness(p))
            assert (report.line_count, report.has_universal) == (len(s), full in s)
            reported += 1
    assert reported == 2 + 18 + 218 + 4230


@given(poset_strategy)
@settings(max_examples=60)
def test_incomparable_pairs_give_bare_pair_lines(case):
    n, covers = case
    p = Poset.from_covers(n, covers)
    if n < 2:
        return
    rel = poset_betweenness(p)
    for a, b in pair_list(n):
        expected = (
            {a, b} | {x for x in range(n) if comparable(p, x, a) and comparable(p, x, b)}
            if comparable(p, a, b)
            else {a, b}
        )
        assert line_of(rel, a, b) == sum(1 << x for x in expected)


def bucketed_layers(p):
    """The layers bucketed from the levels, one point mask per level."""
    layers = [0] * p.height
    for v, level in enumerate(p.levels):
        layers[level - 1] |= 1 << v
    return tuple(layers)


def levels_by_recurrence(p):
    """Longest-chain levels, points taken in predecessor-count order (a
    topological order of the closed relation); an oracle independent of
    peeling minimal points."""
    levels = [0] * p.size
    for v in sorted(range(p.size), key=lambda x: p.pred[x].bit_count()):
        levels[v] = 1 + max((levels[u] for u in bits_of(p.pred[v])), default=0)
    return tuple(levels)


def transpose(rows):
    return tuple(
        sum(1 << v for v in range(len(rows)) if rows[v] >> u & 1)
        for u in range(len(rows))
    )


@pytest.mark.parametrize("descending", [True, False])
def test_a_long_chain_of_covers_is_closed_over_several_passes(descending):
    # Twelve points in one chain, each cover given once: a single
    # closure pass only doubles the reach, so this takes several.
    n = 12
    covers = [(v + 1, v) if descending else (v, v + 1) for v in range(n - 1)]
    covers.reverse()
    p = Poset.from_covers(n, covers)
    assert relation_pairs(p) == reachable_pairs(n, covers)
    assert p.pred == transpose(p.succ)
    assert p.height == n
    order = range(n - 1, -1, -1) if descending else range(n)
    assert [p.levels[v] for v in order] == list(range(1, n + 1))
    assert p.layers == tuple(1 << v for v in order)


@given(poset_strategy)
@settings(max_examples=80)
def test_pred_is_the_transpose_of_succ(case):
    n, covers = case
    p = Poset.from_covers(n, covers)
    assert p.pred == transpose(p.succ)
    assert relation_pairs(p) == reachable_pairs(n, covers)


def test_levels_and_layers_equal_the_recurrence_and_its_buckets_up_to_n6():
    for n in range(1, 7):
        for p in enumerate_posets(n):
            assert p.levels == levels_by_recurrence(p), p.succ
            assert p.layers == bucketed_layers(p), p.succ
            assert p.height == max(p.levels)


def test_a_cycle_found_only_after_several_passes_is_rejected():
    # 0 < 1 < 2 < 3 < 4 leads into the cycle 4 < 5 < ... < 11 < 4: no
    # point sees itself until the reach has doubled a few times, and the
    # first point on the cycle is named.
    covers = [(v, v + 1) for v in range(11)] + [(11, 4)]
    with pytest.raises(CycleError, match="cycle through point 4$"):
        Poset.from_covers(12, covers)
    rows = [0] * 12
    for a, b in covers:
        rows[a] |= 1 << b
    with pytest.raises(CycleError, match="cycle through point 4$"):
        Poset(rows)


def test_the_comparability_graph_is_built_once_per_poset():
    p = Poset.from_covers(4, [(0, 1), (1, 2), (3, 2)])
    assert comparability_graph(p) is comparability_graph(p)
    assert comparability_graph(p).adj == (0b0110, 0b0101, 0b1011, 0b0100)
