"""Finite strict partial orders with their level partition, held once
as point masks, and their comparability graph.

A point x lies between a and b exactly when a < x < b or b < x < a, so
the line of a comparable pair is the pair plus everything comparable to
both of its points, and the line of an incomparable pair is the bare
pair.
"""

from __future__ import annotations

from typing import Iterable

from .bounds import dbe_bound
from .core import WIDE_BITS, BetweennessRelation, check_point, check_size, set_bits
from .errors import CycleError, UnknownPointError
from .graphs import Graph, is_extremal_graph


class Poset:
    """Immutable strict partial order stored as successor bitmasks.

    ``succ[v]`` holds every point strictly above v in the (transitively
    closed) order; ``pred[v]`` every point strictly below.  The level
    of v is the size of the longest chain ending at v, so the level sets
    partition the poset into ``height`` antichains, the fewest possible
    (Mirsky's theorem).  ``layers`` holds them as point masks, lowest
    level first, and is the one record of the partition: v has level
    i + 1 exactly when it is a bit of ``layers[i]``.

    The constructor is the one validation path, for every poset read
    from outside (parsed input, ``verify``, ``poset_report``): it takes
    the transitive closure of the rows it is given, so any acyclic
    relation is accepted, and raises UnknownPointError on a row naming
    a point >= n and CycleError when the closure puts some point above
    itself.  The closure pass that finds the rows closed also
    transposes them into ``pred``.  ``_from_closed`` takes the
    enumerator's rows, closed and acyclic by construction, without
    that pass.  Both peel the layers in ``_fill``.
    """

    __slots__ = ("size", "succ", "pred", "layers", "height", "_graph", "_bound")

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
            for v, row in enumerate(rows):
                reach = rest = row
                while rest:
                    low = rest & -rest
                    u = low.bit_length() - 1
                    reach |= rows[u]
                    pred[u] |= 1 << v
                    rest ^= low
                closed.append(reach)
            if closed == rows:
                break
            rows = closed
        for v in range(n):
            if rows[v] >> v & 1:
                raise CycleError(f"cover relations create a cycle through point {v}")
        self._fill(tuple(rows), tuple(pred))

    @classmethod
    def _from_closed(cls, succ: tuple[int, ...], pred: tuple[int, ...]) -> "Poset":
        # For closed, acyclic rows, each the other's transpose (every
        # enumerated poset): skips the closure pass and the checks.
        p = cls.__new__(cls)
        p._fill(succ, pred)
        return p

    def _fill(self, succ: tuple[int, ...], pred: tuple[int, ...]) -> None:
        """Set the fields from closed rows, peeling the layers as minimal
        points: layer k holds the points whose predecessors all lie in
        layers 1..k-1, which are exactly the points whose longest chain
        ending there has k points.  A wide ``rest`` is walked, and its
        layer set, a byte at a time: a shift or an OR on an n-bit int
        copies it.  A narrow one stays with int operations, since a byte
        buffer per layer slows the n = 5 poset sweep by 7 to 10 %."""
        n = len(succ)
        layers = []
        rest = (1 << n) - 1
        while rest:
            if rest.bit_length() < WIDE_BITS:
                layer = 0
                scan = rest
                while scan:
                    low = scan & -scan
                    if not pred[low.bit_length() - 1] & rest:
                        layer |= low
                    scan ^= low
            else:
                buffer = bytearray(n + 7 >> 3)
                for v in set_bits(rest):
                    if not pred[v] & rest:
                        buffer[v >> 3] |= 1 << (v & 7)
                layer = int.from_bytes(buffer, "little")
            layers.append(layer)
            rest ^= layer
        self.size = n
        self.succ = succ
        self.pred = pred
        self.layers = tuple(layers)
        self.height = len(layers)
        self._graph = None
        self._bound = None

    @property
    def bound(self) -> int:
        """``dbe_bound(size, height)``, kept after the first read, so a
        sweep's report fields and the certificate replay share one
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
    """Betweenness relation of p by its definition: the 3-chains
    (a, x, b) with a < x < b, read off ``succ[a] & pred[b]``."""
    succ, pred = p.succ, p.pred
    return BetweennessRelation(p.size, (
        (a, x, b)
        for a, above in enumerate(succ)
        for b in set_bits(above)
        for x in set_bits(above & pred[b])
    ))


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
