"""Finite strict partial orders with cached longest-chain levels, their
layers and their comparability graph.

A point x lies between a and b exactly when a < x < b or b < x < a, so
the line of a comparable pair is the pair plus everything comparable to
both of its points, and the line of an incomparable pair is the bare
pair.
"""

from __future__ import annotations

from typing import Iterable

from .bounds import dbe_bound
from .core import BetweennessRelation, check_point, check_size
from .errors import CycleError, UnknownPointError
from .graphs import Graph, is_extremal_graph


class Poset:
    """Immutable strict partial order stored as successor bitmasks.

    ``succ[v]`` holds every point strictly above v in the (transitively
    closed) order; ``pred[v]`` every point strictly below.  ``levels[v]``
    is the size of the longest chain ending at v, so the level sets
    partition the poset into ``height`` antichains, the fewest possible
    (Mirsky's theorem); ``layers`` holds them as point masks, lowest
    level first.

    The constructor is the one validation path: it takes the transitive
    closure of the rows it is given, so any acyclic relation is
    accepted, and raises UnknownPointError on a row naming a point >= n
    and CycleError when the closure puts some point above itself.  The
    closure pass that finds the rows closed also transposes them into
    ``pred``, and the levels come from peeling minimal points, one
    layer at a time.
    """

    __slots__ = ("size", "succ", "pred", "levels", "layers", "height", "_graph", "_bound")

    def __init__(self, succ_rows: Iterable[int]):
        rows = list(succ_rows)
        n = check_size(len(rows))
        for v, row in enumerate(rows):
            if row >> n:
                raise UnknownPointError(f"order row {v} mentions points >= {n}")
        # Repeated squaring: each pass extends reachability from <= k
        # steps to <= 2k steps, so O(log n) passes suffice, and rows
        # that are already closed (every enumerated poset) take one.
        # Each pass also transposes the rows it reads, which is ``pred``
        # once they are closed.
        while True:
            closed = []
            pred = [0] * n
            bit = 1
            for row in rows:
                reach = rest = row
                while rest:
                    low = rest & -rest
                    u = low.bit_length() - 1
                    reach |= rows[u]
                    pred[u] |= bit
                    rest ^= low
                closed.append(reach)
                bit <<= 1
            if closed == rows:
                break
            rows = closed
        for v in range(n):
            if rows[v] >> v & 1:
                raise CycleError(f"cover relations create a cycle through point {v}")
        # Peel minimal points: layer k holds the points whose
        # predecessors all lie in layers 1..k-1, which are exactly the
        # points whose longest chain ending there has k points.
        levels = [0] * n
        layers = []
        rest = (1 << n) - 1
        while rest:
            layer = 0
            scan = rest
            while scan:
                low = scan & -scan
                v = low.bit_length() - 1
                if not pred[v] & rest:
                    layer |= low
                    levels[v] = len(layers) + 1
                scan ^= low
            layers.append(layer)
            rest ^= layer
        self.size = n
        self.succ = tuple(rows)
        self.pred = tuple(pred)
        self.levels = tuple(levels)
        self.layers = tuple(layers)
        self.height = len(layers)
        self._graph = None
        self._bound = None

    @property
    def bound(self) -> int:
        """``dbe_bound(size, height)``, kept after the first read, so a
        sweep's report, the certificate build and its replay share one
        evaluation.  Raises DomainError when the height is below 2."""
        if self._bound is None:
            self._bound = dbe_bound(self.size, self.height)
        return self._bound

    @classmethod
    def from_covers(cls, n: int, covers: Iterable[tuple[int, int]]) -> "Poset":
        """Poset from cover (or any generating) relations a < b.

        Rejects a point outside 0..n-1 and builds one row per point; the
        constructor takes the transitive closure and rejects cycles, so
        supplying the full order relation instead of covers is accepted.
        """
        rows = [0] * n
        for a, b in covers:
            check_point(n, a)
            check_point(n, b)
            rows[a] |= 1 << b
        return cls(rows)


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


def maximum_chain_through_levels(p: Poset) -> tuple[int, ...]:
    """A maximum chain c_1 < ... < c_H with c_i at level i.

    An arbitrary maximum chain need not meet every level set at its own
    level, so the chain is built top-down: start from the smallest point
    of the top level, then repeatedly take the smallest predecessor one
    level down (one always exists by the level recurrence), the lowest
    bit of the predecessor row masked by that level's mask in
    ``p.layers``.
    """
    *lower, top = p.layers
    pred = p.pred
    chain = [(top & -top).bit_length() - 1]
    for layer in reversed(lower):
        below = pred[chain[-1]] & layer
        chain.append((below & -below).bit_length() - 1)
    chain.reverse()
    return tuple(chain)


def comparability_graph(p: Poset) -> Graph:
    """Graph joining exactly the comparable pairs.

    Its triangles are exactly the 3-chains of the poset, so the poset
    and the graph induce the same line system, and the poset's extremal
    shape is the graph's (``is_extremal_poset``).  The rows are
    symmetric and loop-free by construction, so they are not validated
    again.  The graph is built on the first call and kept on ``p``, so
    the sweep's count and the certificate replay share it.
    """
    g = p._graph
    if g is None:
        succ, pred = p.succ, p.pred
        g = p._graph = Graph._from_rows([succ[v] | pred[v] for v in range(p.size)])
    return g


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
