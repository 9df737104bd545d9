import random
from functools import lru_cache
from itertools import combinations, product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import linesys.enumeration as enumeration
from linesys import (
    CapError,
    DomainError,
    Poset,
    pair_list,
    poset_code,
    poset_from_code,
)
from linesys.enumeration import state_code, _iter_states
from linesys.sweeps import SWEEP_KINDS, sweep_kind
from reference import enumerate_graphs, enumerate_posets, poset_state


def brute_force_poset_codes(n):
    """The code of every pair-state assignment that passes a
    from-scratch transitivity check, in ascending order; independent of
    the backtracking enumerator."""
    pairs = pair_list(n)
    codes = []
    for code, states in enumerate(product(range(3), repeat=len(pairs))):
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
            codes.append(code)
    return codes


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
    # The cap lives with the sweep kind; below the minimum is a domain
    # error, not a cap.
    with pytest.raises(CapError):
        sweep_kind("graph", 9)
    with pytest.raises(DomainError):
        sweep_kind("graph", 2)


def test_poset_counts_match_independent_filter():
    for n, expected in ((1, 1), (2, 3), (3, 19), (4, 219)):
        codes = brute_force_poset_codes(n)
        assert len(codes) == expected
        assert [code for code, _, _ in _iter_states(n)] == codes
        assert sum(1 for _ in enumerate_posets(n)) == expected


def test_enumerated_rows_are_closed_orders_with_their_code():
    # Every yielded row tuple is already the closed order, and its code
    # is the one poset_code reads back from the rows.
    for n in range(1, 6):
        for code, rows, _ in _iter_states(n):
            p = Poset(rows)
            assert p.succ == rows
            assert poset_code(p) == code


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


def test_poset_code_equals_the_digit_by_digit_code():
    # poset_code builds the base-3 id by halves; state_code reads one
    # digit at a time.  Every poset with n <= 5, then random posets whose
    # C(n, 2) digits take several levels of halving.
    for n in range(1, 6):
        for p in enumerate_posets(n):
            assert poset_code(p) == state_code(poset_state(p))
    rng = random.Random(5)
    for n in (12, 13, 40, 97):
        for density in (0.0, 0.1, 0.5):
            order = rng.sample(range(n), n)
            rows = [0] * n
            for i, j in combinations(range(n), 2):
                if rng.random() < density:
                    rows[order[i]] |= 1 << order[j]
            p = Poset(rows)
            assert poset_code(p) == state_code(poset_state(p))
            if n <= 40:
                assert poset_from_code(n, poset_code(p)).succ == p.succ


def test_poset_code_builds_only_the_digits_from_the_first_comparable_pair(monkeypatch):
    # The digits before the first comparable pair are leading zeros.
    built = []
    pair_states = enumeration._pair_states

    def recorded(succ, pairs):
        built.append(pair_states(succ, pairs))
        return built[-1]

    monkeypatch.setattr(enumeration, "_pair_states", recorded)
    for n in range(2, 8):
        for q, (a, b) in enumerate(pair_list(n)):
            for rows in ([1 << b if x == a else 0 for x in range(n)],
                         [1 << a if x == b else 0 for x in range(n)]):
                p = Poset(rows)
                built.clear()
                assert poset_code(p) == state_code(poset_state(p))
                assert len(built[0]) == len(pair_list(n)) - q
    built.clear()
    assert poset_code(Poset([0] * 5)) == 0 and built == []
    assert poset_code(Poset([0] * 1198 + [1 << 1199, 0])) == 1 and built == [(1,)]


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
        sweep_kind("poset", 8)


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
    whole = [(poset_code(p), p.succ, p.pred) for p in enumerate_posets(4)]
    pieces = []
    for prefix in SWEEP_KINDS["poset"].chunks(4):
        pieces.extend(_iter_states(4, prefix))
    assert pieces == whole


@pytest.mark.parametrize("n", [5, 6])
def test_prefixes_of_one_point_against_all_others_partition_in_order(n):
    # The chunk layout of the largest poset sweeps, checked where the
    # whole enumeration is cheap.
    pieces = []
    largest = 0
    for prefix in SWEEP_KINDS["poset"].chunks(n):
        piece = list(_iter_states(n, prefix))
        largest = max(largest, len(piece))
        pieces.extend(piece)
    assert pieces == list(_iter_states(n))
    # Point 0 unrelated, below all or above all: each as many posets as
    # on the other n - 1 points, and no prefix has more.
    assert largest == sum(1 for _ in _iter_states(n - 1))


@lru_cache(maxsize=None)
def whole_enumeration(n):
    return tuple(_iter_states(n))


# A size n <= 6 and a prefix of up to all C(n, 2) pair states.
prefixes = st.integers(1, 6).flatmap(
    lambda n: st.tuples(
        st.just(n), st.lists(st.integers(0, 2), max_size=n * (n - 1) // 2).map(tuple)
    )
)


@given(prefixes)
@example((3, (1, 0, 1)))  # 0 < 1 < 2 but 0 and 2 incomparable: no poset
@example((4, (2, 2, 2)))  # point 0 above every other point
@settings(max_examples=150, deadline=None)
def test_a_prefix_selects_the_posets_with_those_leading_states_in_order(case):
    n, prefix = case
    rest = n * (n - 1) // 2 - len(prefix)
    # The leading states of a code are its leading base-3 digits.
    expected = [
        entry for entry in whole_enumeration(n)
        if entry[0] // 3**rest == state_code(prefix)
    ]
    assert list(_iter_states(n, prefix)) == expected


def test_a_prefix_that_breaks_transitivity_yields_nothing():
    # 0 < 1 and 1 < 2 force 0 < 2, so 0 and 2 incomparable (state 0)
    # or 2 < 0 (state 2, a cycle) has no poset, whatever follows.
    assert list(_iter_states(3, (1, 0, 1))) == []
    assert list(_iter_states(3, (1, 2, 1))) == []
    assert list(_iter_states(5, (1, 0, 0, 0, 1))) == []
    # With 0 below 1 and 2, the pair (1, 2) may take every state.
    assert [code for code, _, _ in _iter_states(3, (1, 1))] == [
        state_code((1, 1, s)) for s in range(3)
    ]
