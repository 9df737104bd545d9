"""Finite strict partial orders with cached longest-chain levels.

A point x lies between a and b exactly when a < x < b or b < x < a, so
the line of a comparable pair is the pair plus everything comparable to
both of its points, and the line of an incomparable pair is the bare
pair.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .core import BetweennessRelation, bits_of, check_point, check_size
from .errors import CycleError, InternalError, UnknownPointError
from .graphs import Graph, is_extremal_graph


def _transitive_closure(rows: list[int]) -> list[int]:
    # Repeated squaring: each pass extends reachability from <= k steps
    # to <= 2k steps, so O(log n) passes suffice.
    n = len(rows)
    while True:
        changed = False
        nxt = []
        for i in range(n):
            reach = rows[i]
            acc = reach
            for j in bits_of(reach):
                acc |= rows[j]
            nxt.append(acc)
            changed = changed or acc != reach
        if not changed:
            return nxt
        rows = nxt


class Poset:
    """Immutable strict partial order stored as successor bitmasks.

    ``succ[v]`` holds every point strictly above v in the (transitively
    closed) order; ``pred[v]`` every point strictly below.  ``levels[v]``
    is the size of the longest chain ending at v, so the level sets
    partition the poset into ``height`` antichains.
    """

    __slots__ = ("size", "succ", "pred", "levels", "height")

    def __init__(self, succ_rows: Iterable[int]):
        succ = tuple(succ_rows)
        n = check_size(len(succ))
        full = (1 << n) - 1
        for v, row in enumerate(succ):
            if row & ~full:
                raise UnknownPointError(f"order row {v} mentions points >= {n}")
            if row >> v & 1:
                raise CycleError(f"point {v} precedes itself")
        for v in range(n):
            for u in bits_of(succ[v]):
                if succ[u] >> v & 1:
                    raise CycleError(f"points {v} and {u} precede each other")
                if succ[u] & ~succ[v]:
                    # Construction sites (from_covers, enumeration) always
                    # hand over closed rows, so this is a bug, not input.
                    raise InternalError(
                        f"order rows are not transitively closed at {v} < {u}"
                    )
        pred = [0] * n
        for v in range(n):
            for u in bits_of(succ[v]):
                pred[u] |= 1 << v
        # Longest chain ending at each point; points in predecessor-count
        # order form a topological order of the closed relation.
        levels = [0] * n
        for v in sorted(range(n), key=lambda x: pred[x].bit_count()):
            best = 0
            for u in bits_of(pred[v]):
                if levels[u] > best:
                    best = levels[u]
            levels[v] = best + 1
        self.size = n
        self.succ = succ
        self.pred = tuple(pred)
        self.levels = tuple(levels)
        self.height = max(levels)

    @classmethod
    def from_covers(cls, n: int, covers: Iterable[tuple[int, int]]) -> "Poset":
        """Poset from cover (or any generating) relations a < b.

        The transitive closure is taken, so supplying the full order
        relation instead of covers is accepted.
        """
        rows = [0] * n
        for a, b in covers:
            check_point(n, a)
            check_point(n, b)
            rows[a] |= 1 << b
        closed = _transitive_closure(rows)
        for v in range(n):
            if closed[v] >> v & 1:
                raise CycleError(f"cover relations create a cycle through point {v}")
        return cls(closed)

    def is_less(self, a: int, b: int) -> bool:
        check_point(self.size, a)
        check_point(self.size, b)
        return bool(self.succ[a] >> b & 1)

    def comparable(self, a: int, b: int) -> bool:
        return bool((self.succ[a] | self.pred[a]) >> b & 1)

    def relation_pairs(self) -> Iterator[tuple[int, int]]:
        """All ordered pairs (a, b) with a < b in the order."""
        for a in range(self.size):
            for b in bits_of(self.succ[a]):
                yield (a, b)


def poset_betweenness(p: Poset) -> BetweennessRelation:
    """Betweenness relation with (a, x, b) when a < x < b or b < x < a."""
    n = p.size
    succ, pred = p.succ, p.pred
    mid = [[0] * n for _ in range(n)]
    outer = [[0] * n for _ in range(n)]
    for a in range(n):
        succ_a, pred_a = succ[a], pred[a]
        mid_a, outer_a = mid[a], outer[a]
        for b in range(n):
            if succ_a >> b & 1:
                mid_a[b] = succ_a & pred[b]
            elif pred_a >> b & 1:
                mid_a[b] = pred_a & succ[b]
            # outer[x=a][u=b]: partners beyond b through middle a
            if pred_a >> b & 1:
                outer_a[b] = succ_a
            elif succ_a >> b & 1:
                outer_a[b] = pred_a
    return BetweennessRelation._from_matrices(
        n, tuple(map(tuple, mid)), tuple(map(tuple, outer))
    )


def mirsky_partition(p: Poset) -> tuple[int, ...]:
    """Partition into height-many antichains by longest-chain level,
    one point mask per layer.

    Layer i (1-based) collects the points whose longest chain ending
    there has exactly i points; by Mirsky's theorem no partition into
    antichains can use fewer layers.
    """
    layers = [0] * p.height
    for v, level in enumerate(p.levels):
        layers[level - 1] |= 1 << v
    return tuple(layers)


def maximum_chain_through_levels(p: Poset) -> tuple[int, ...]:
    """A maximum chain c_1 < ... < c_H with c_i at level i.

    An arbitrary maximum chain need not meet every level set at its own
    level, so the chain is built top-down: start from the smallest point
    of the top level, then repeatedly take the smallest predecessor one
    level down (one always exists by the level recurrence).
    """
    top = min(v for v in range(p.size) if p.levels[v] == p.height)
    chain = [top]
    for level in range(p.height - 1, 0, -1):
        current = chain[-1]
        chain.append(
            min(u for u in bits_of(p.pred[current]) if p.levels[u] == level)
        )
    chain.reverse()
    return tuple(chain)


def comparability_graph(p: Poset) -> Graph:
    """Graph joining exactly the comparable pairs.

    Its triangles are exactly the 3-chains of the poset, so the poset
    and the graph induce the same line system, and the poset's extremal
    shape is the graph's (``is_extremal_poset``).
    """
    return Graph([p.succ[v] | p.pred[v] for v in range(p.size)])


def is_extremal_poset(p: Poset) -> bool:
    """True when the poset is a chain on all but one point plus a point
    comparable with at most one other: the only shape attaining exactly
    n distinct lines when the height is at least 2 and no line is
    universal.

    A chain is a clique of the comparability graph and the extra point
    a vertex of degree at most one, so this is the graph shape of
    ``comparability_graph(p)``; like it, it raises SizeError for n < 2
    and accepts the 3-point antichain (the empty graph).
    """
    return is_extremal_graph(comparability_graph(p))
