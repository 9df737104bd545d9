"""Exhaustive generation of all labeled graphs and posets on small
ground sets, with canonical integer encodings.

Graphs are encoded by an edge bitmask over pair_list(n) and enumerated
in ascending mask order.  Posets are encoded by a pair-state vector
(0 incomparable, 1 lo < hi, 2 hi < lo) enumerated by backtracking in
lexicographic pair order; a state is pruned as soon as the newest pair
completes a triple that violates transitivity.  The big-endian base-3
code of the state vector therefore ascends in enumeration order.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product
from typing import Iterable, Iterator

from .core import pair_list
from .errors import CapError, CycleError, DomainError
from .graphs import Graph
from .posets import Poset

GRAPH_ENUM_CAP = 8
POSET_ENUM_CAP = 7
# Metrics are enumerated as the shortest-path metrics of every graph
# mask, each counted from n breadth-first searches, so their cap sits
# below the graphs'.
METRIC_ENUM_CAP = 7


def enumerate_graphs(n: int) -> Iterator[Graph]:
    """All 2^C(n,2) labeled graphs on 0..n-1 in edge-bitmask order."""
    if not 1 <= n <= GRAPH_ENUM_CAP:
        raise CapError(
            f"graph enumeration supports 1 <= n <= {GRAPH_ENUM_CAP}, got {n}"
        )
    for mask in range(1 << len(pair_list(n))):
        yield Graph.from_mask(n, mask)


@lru_cache(maxsize=None)
def _valid_triple_states() -> frozenset[tuple[int, int, int]]:
    # States of the pairs (a,b), (a,c), (b,c) of a triple a < b < c that
    # satisfy every transitivity implication.
    good = set()
    for s_ab, s_ac, s_bc in product(range(3), repeat=3):
        rules = (
            (s_ab == 1 and s_bc == 1, s_ac == 1),  # a<b, b<c => a<c
            (s_bc == 2 and s_ab == 2, s_ac == 2),  # c<b, b<a => c<a
            (s_ac == 1 and s_bc == 2, s_ab == 1),  # a<c, c<b => a<b
            (s_bc == 1 and s_ac == 2, s_ab == 2),  # b<c, c<a => b<a
            (s_ab == 2 and s_ac == 1, s_bc == 1),  # b<a, a<c => b<c
            (s_ac == 2 and s_ab == 1, s_bc == 2),  # c<a, a<b => c<b
        )
        if all(conclusion for premise, conclusion in rules if premise):
            good.add((s_ab, s_ac, s_bc))
    return frozenset(good)


@lru_cache(maxsize=None)
def _pair_dependencies(n: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    # For pair (b, c) at index q: the indices of (a, b) and (a, c) for
    # every a < b.  Those pairs precede q in lexicographic order, so the
    # triple a, b, c is fully known once pair q is assigned.
    pairs = pair_list(n)
    index = {pair: i for i, pair in enumerate(pairs)}
    return tuple(
        tuple((index[(a, b)], index[(a, c)]) for a in range(b))
        for (b, c) in pairs
    )


def _iter_states(n: int, prefix: tuple[int, ...] = ()) -> Iterator[tuple[int, ...]]:
    """Complete pair-state vectors extending ``prefix``, in lex order.

    Yields nothing when the prefix itself violates transitivity.
    """
    pairs = pair_list(n)
    total = len(pairs)
    deps = _pair_dependencies(n)
    valid = _valid_triple_states()
    state = [0] * total

    for q, s in enumerate(prefix):
        state[q] = s
        if any((state[i], state[j], s) not in valid for i, j in deps[q]):
            return

    def extend(q: int) -> Iterator[tuple[int, ...]]:
        if q == total:
            yield tuple(state)
            return
        deps_q = deps[q]
        for s in range(3):
            state[q] = s
            if all((state[i], state[j], s) in valid for i, j in deps_q):
                yield from extend(q + 1)

    yield from extend(len(prefix))


def poset_from_state(n: int, state: tuple[int, ...]) -> Poset:
    rows = [0] * n
    for (a, b), s in zip(pair_list(n), state):
        if s == 1:
            rows[a] |= 1 << b
        elif s == 2:
            rows[b] |= 1 << a
    return Poset(rows)


def poset_state(p: Poset) -> tuple[int, ...]:
    return tuple(
        1 if p.succ[a] >> b & 1 else 2 if p.succ[b] >> a & 1 else 0
        for a, b in pair_list(p.size)
    )


def state_code(state: Iterable[int]) -> int:
    """Big-endian base-3 encoding of a pair-state vector."""
    code = 0
    for s in state:
        code = code * 3 + s
    return code


def poset_code(p: Poset) -> int:
    """``state_code(poset_state(p))``, built by halves: on C(n, 2) digits
    the digit-by-digit loop is quadratic, and large inputs reach it."""
    return _code_by_halves(poset_state(p))


def _code_by_halves(state: tuple[int, ...]) -> int:
    if len(state) <= 64:
        return state_code(state)
    half = len(state) // 2
    return (
        _code_by_halves(state[:half]) * 3 ** (len(state) - half)
        + _code_by_halves(state[half:])
    )


def poset_from_code(n: int, code: int) -> Poset:
    """The poset on n points whose ``poset_code`` is ``code``.

    Raises DomainError for a code outside 0..3**C(n, 2)-1 and for one
    that no poset has: a state vector that breaks transitivity or
    closes a cycle.
    """
    total = len(pair_list(n))
    if not 0 <= code < 3**total:
        raise DomainError(f"poset code {code} is outside 0..3**{total}-1 for n = {n}")
    digits = [0] * total
    rest = code
    for q in range(total - 1, -1, -1):
        rest, digits[q] = divmod(rest, 3)
    try:
        p = poset_from_state(n, tuple(digits))
        if poset_code(p) == code:
            return p
    except CycleError:
        pass
    raise DomainError(f"{code} is not the code of a poset on {n} points")


def enumerate_posets(n: int) -> Iterator[Poset]:
    """Every labeled strict partial order on 0..n-1, in ascending
    poset_code order."""
    if not 1 <= n <= POSET_ENUM_CAP:
        raise CapError(
            f"poset enumeration supports 1 <= n <= {POSET_ENUM_CAP}, got {n}"
        )
    for state in _iter_states(n):
        yield poset_from_state(n, state)


def poset_state_prefixes(n: int, depth: int) -> list[tuple[int, ...]]:
    """Backtracking-tree prefixes partitioning the enumeration, in order."""
    depth = min(depth, len(pair_list(n)))
    return [tuple(prefix) for prefix in product(range(3), repeat=depth)]
