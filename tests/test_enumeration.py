from itertools import combinations, product

import pytest

from linesys import (
    CapError,
    DomainError,
    enumerate_graphs,
    enumerate_posets,
    pair_list,
    poset_code,
    poset_from_code,
)
from linesys.enumeration import poset_state, poset_state_prefixes, _iter_states


def brute_force_poset_count(n):
    """Filter every pair-state assignment with a from-scratch
    transitivity check; independent of the backtracking enumerator."""
    pairs = pair_list(n)
    count = 0
    for states in product(range(3), repeat=len(pairs)):
        less = set()
        for (a, b), s in zip(pairs, states):
            if s == 1:
                less.add((a, b))
            elif s == 2:
                less.add((b, a))
        if all(
            (x, z) in less
            for x, y in less
            for (y2, z) in less
            if y == y2 and x != z
        ) and not any((x, y) in less and (y, x) in less for x, y in less):
            count += 1
    return count


def test_graph_counts():
    assert sum(1 for _ in enumerate_graphs(2)) == 2
    assert sum(1 for _ in enumerate_graphs(3)) == 8
    assert sum(1 for _ in enumerate_graphs(4)) == 64


def test_graph_enumeration_is_in_mask_order_and_deterministic():
    masks = [g.edge_mask() for g in enumerate_graphs(4)]
    assert masks == list(range(64))
    again = [g.edge_mask() for g in enumerate_graphs(4)]
    assert masks == again


def test_graph_cap():
    with pytest.raises(CapError):
        next(enumerate_graphs(9))
    with pytest.raises(CapError):
        next(enumerate_graphs(0))


def test_poset_counts_match_independent_filter():
    for n, expected in ((2, 3), (3, 19), (4, 219)):
        assert brute_force_poset_count(n) == expected
        assert sum(1 for _ in enumerate_posets(n)) == expected


def test_poset_count_n5():
    assert sum(1 for _ in enumerate_posets(5)) == 4231


def test_poset_enumeration_is_deterministic_and_in_code_order():
    codes = [poset_code(p) for p in enumerate_posets(4)]
    assert codes == sorted(codes)
    assert len(set(codes)) == len(codes)
    assert codes == [poset_code(p) for p in enumerate_posets(4)]


def test_poset_code_round_trip():
    for p in enumerate_posets(3):
        q = poset_from_code(3, poset_code(p))
        assert q.succ == p.succ


def test_poset_from_code_rejects_codes_no_poset_has():
    # 0 < 1 and 1 < 2 with 0, 2 incomparable breaks transitivity; its
    # closure is the chain, whose code is 13.
    with pytest.raises(DomainError, match="not the code of a poset"):
        poset_from_code(3, 10)
    # 0 < 1, 2 < 0 and 1 < 2 close a cycle.
    with pytest.raises(DomainError, match="not the code of a poset"):
        poset_from_code(3, 16)
    # Beyond 3**C(2, 2) - 1 = 2, and below 0.
    for code in (5, 3, -1):
        with pytest.raises(DomainError, match="outside"):
            poset_from_code(2, code)
    # Exactly the codes of the enumerated posets decode.
    for n in (3, 4):
        accepted = []
        for code in range(3 ** len(pair_list(n))):
            try:
                accepted.append(poset_code(poset_from_code(n, code)))
            except DomainError:
                pass
        assert accepted == [poset_code(p) for p in enumerate_posets(n)]


def test_poset_cap():
    with pytest.raises(CapError):
        next(enumerate_posets(8))


def test_posets_yielded_are_valid():
    for p in enumerate_posets(3):
        def less(a, b):
            return p.succ[a] >> b & 1

        for a, b in combinations(range(3), 2):
            assert not (less(a, b) and less(b, a))
        for x, y, z in product(range(3), repeat=3):
            if less(x, y) and less(y, z):
                assert less(x, z)


def test_prefix_partition_covers_the_enumeration_in_order():
    whole = [poset_state(p) for p in enumerate_posets(4)]
    pieces = []
    for prefix in poset_state_prefixes(4, 3):
        pieces.extend(_iter_states(4, prefix))
    assert pieces == whole
