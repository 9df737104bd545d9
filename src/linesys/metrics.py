"""Finite metric spaces with exact rational distances.

A point x lies between a and b when d(a,x) + d(x,b) = d(a,b).  Equality
is exact: distances are ints or Fractions, never floats, because a
tolerance-based comparison would silently change line counts.

``metric_pair_lines`` reads the line of every pair of a metric space
from its distance rows; ``metric_lines`` groups them into runs, and a
metric report counts them by sorting.  ``metric_mask_planes`` counts
the lines of the shortest-path metrics of a whole chunk of edge masks
at once, by breadth-first search on the graph kernel's planes, with no
metric space built.  Its oracle, ``graph_shortest_path_metric``,
counts the hops of one graph by a plain queue search from each point
and passes them to the validating ``MetricSpace`` constructor.
"""

from __future__ import annotations

import numbers
from functools import reduce
from operator import and_, or_
from typing import Iterable, Iterator, Sequence

from .core import BetweennessRelation, bits_of, check_size, line_system, pair_list
from .errors import DisconnectedError, MetricError, SizeError
from .graphs import Graph, _adjacency_planes, _edge_planes, _line_planes


class MetricSpace:
    """Immutable metric on points 0..n-1.

    Construction validates every axiom and names the offending entries:
    entries must be exact rationals, the diagonal zero, the matrix
    symmetric with positive off-diagonal entries, and every triple must
    satisfy the triangle inequality.
    """

    __slots__ = ("size", "dist")

    def __init__(self, dist: Iterable[Sequence]):
        rows = tuple(tuple(row) for row in dist)
        n = check_size(len(rows))
        if any(len(row) != n for row in rows):
            raise SizeError(f"expected an {n} x {n} distance matrix")
        for i, row in enumerate(rows):
            for j, value in enumerate(row):
                if isinstance(value, float) or not isinstance(
                    value, numbers.Rational
                ):
                    raise MetricError(
                        f"dist[{i}][{j}] = {value!r} is not an exact rational"
                    )
        for i in range(n):
            if rows[i][i] != 0:
                raise MetricError(f"dist[{i}][{i}] must be 0, got {rows[i][i]}")
            for j in range(i + 1, n):
                if rows[i][j] != rows[j][i]:
                    raise MetricError(f"dist[{i}][{j}] != dist[{j}][{i}]")
                if rows[i][j] <= 0:
                    raise MetricError(
                        f"dist[{i}][{j}] = {rows[i][j]} must be positive"
                    )
        for i in range(n):
            row_i = rows[i]
            for j in range(n):
                if i == j:
                    continue
                d_ij = row_i[j]
                row_j = rows[j]
                for k in range(n):
                    if row_i[k] > d_ij + row_j[k]:
                        raise MetricError(
                            f"triangle inequality fails: dist[{i}][{k}] > "
                            f"dist[{i}][{j}] + dist[{j}][{k}]"
                        )
        self.size = n
        self.dist = rows


def metric_betweenness(m: MetricSpace) -> BetweennessRelation:
    """Betweenness relation with (a, x, b) when d(a,x) + d(x,b) = d(a,b)."""
    n = m.size
    dist = m.dist
    triples = []
    for a in range(n):
        for b in range(a + 1, n):
            d_ab = dist[a][b]
            for x in range(n):
                if x != a and x != b and dist[a][x] + dist[x][b] == d_ab:
                    triples.append((a, x, b))
    return BetweennessRelation(n, triples)


def metric_lines(m: MetricSpace) -> Iterator[tuple]:
    """Every distinct line of m, as runs of ``line_system``, from the
    line of every pair (``metric_pair_lines``).  Every pair is linked.
    """
    return line_system(m.size, metric_pair_lines(m))


def metric_pair_lines(m: MetricSpace) -> Iterator[tuple[int, tuple[int, int]]]:
    """``(mask, (a, b))`` for every pair a < b, its line read straight
    from the distance rows: x is on the line of a and b when d(a,b) is
    d(a,x) + d(x,b) (x between them, or x = a or b) or |d(a,x) - d(b,x)|
    (a or b between)."""
    dist = m.dist
    return (
        (sum(1 << x for x, (ax, bx) in enumerate(zip(row_a, dist[b]))
             if d_ab in (ax + bx, bx - ax, ax - bx)), (a, b))
        for a, row_a in enumerate(dist)
        for b, d_ab in enumerate(row_a) if b > a
    )


def graph_shortest_path_metric(g: Graph) -> MetricSpace:
    """Hop-count shortest-path metric of a connected graph, by a
    breadth-first search from each point; ``MetricSpace`` checks the
    axioms.  Raises DisconnectedError when some point is out of reach."""
    n, adj = g.size, g.adj
    rows = []
    for source in range(n):
        hops = [None] * n
        hops[source] = 0
        queue = [source]
        for y in queue:  # the loop reaches the points appended to it
            for x in bits_of(adj[y]):
                if hops[x] is None:
                    hops[x] = hops[y] + 1
                    queue.append(x)
        if len(queue) < n:
            raise DisconnectedError("shortest-path metric needs a connected graph")
        rows.append(hops)
    return MetricSpace(rows)


def metric_mask_planes(n: int, lo: int, hi: int) -> tuple[tuple[int, ...], int, int, int]:
    """Line counts and universal lines of the shortest-path metrics of
    the graphs on n vertices with edge masks lo..hi-1, all at once: in
    every returned int, bit i stands for the graph of mask lo + i.

    Returns (duplicate planes, universal, shape, connected), the tuple
    of ``graphs.graph_mask_planes``.  shape is 0: a metric has no
    extremal shape here.  A bit outside ``connected`` has no metric, and
    no duplicate or universal bit.
    Breadth-first search on the adjacency planes gives ``dist[a][x][k]``,
    the masks in which x is k steps from a.  Point x with d(a, x) = k is
    on the line of a pair at distance d exactly when d(b, x) is |k - d|
    or k + d.  Every pair is linked, so a metric has C(n, 2) lines less
    the pairs whose line repeats that of a lower-indexed pair
    (``_line_planes``).
    """
    full = (1 << hi - lo) - 1
    adj = _adjacency_planes(n, _edge_planes(n, lo, hi), full)
    # n empty layers pad each point's list, so that k + d indexes it.
    empty = [0] * n
    dist = []
    for a in range(n):
        layer = [0] * n
        layer[a] = full
        seen, layers = layer, [layer]
        while any(layer):
            reached = [0] * n
            for y, at_y in enumerate(layer):
                if at_y:
                    for x, edge in enumerate(adj[y]):
                        reached[x] |= at_y & edge
            layer = [r & ~s for r, s in zip(reached, seen)]
            seen = list(map(or_, seen, layer))
            layers.append(layer)
        dist.append([[*column, *empty] for column in zip(*layers)])
    # A graph is connected when the last source reaches every point.
    connected = reduce(and_, seen)
    members = []
    for a, b in pair_list(n):
        from_a, from_b = dist[a], dist[b]
        member = [0] * n
        for d, at_d in enumerate(from_a[b]):
            if not at_d:
                continue
            for x, (at_x, to_b) in enumerate(zip(from_a, from_b)):
                on = 0
                for k, at_k in enumerate(at_x):
                    if at_k:
                        on |= at_k & (to_b[abs(k - d)] | to_b[k + d])
                member[x] |= at_d & on
        members.append(member)
    duplicates, universal = _line_planes([connected] * len(members), members, full)
    return duplicates, universal, 0, connected
