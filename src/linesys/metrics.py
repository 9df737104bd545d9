"""Finite metric spaces with exact rational distances.

A point x lies between a and b when d(a,x) + d(x,b) = d(a,b).  Equality
is exact: distances are ints or Fractions, never floats, because a
tolerance-based comparison would silently change line counts.

``metric_lines`` reads the lines of a metric space from its distance
rows.  The shortest-path metric of a connected graph is read off its
breadth-first distance layers: ``graph_shortest_path_metric`` builds
the metric space, and ``metric_mask_planes`` counts the lines of a
whole chunk of edge masks at once on the graph kernel's planes, with
no metric space built.
"""

from __future__ import annotations

import numbers
from functools import reduce
from operator import and_, or_
from typing import Iterable, Iterator, Sequence

from .core import BetweennessRelation, bits_of, check_size, line_system, pair_list
from .errors import DisconnectedError, MetricError, SizeError
from .graphs import Graph, _adjacency_planes, _line_planes


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

    @classmethod
    def _from_rows(cls, rows: tuple[tuple, ...]) -> "MetricSpace":
        # For rows that satisfy the axioms by construction: skips the
        # O(n^3) validation of __init__.
        m = cls.__new__(cls)
        m.dist = rows
        m.size = check_size(len(rows))
        return m


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
    """Every distinct line of m, as runs of ``line_system``, read
    straight from the distance rows: x is on the line of a and b when
    d(a,b) is d(a,x) + d(x,b) (x between them, or x = a or b) or
    |d(a,x) - d(b,x)| (a or b between).  Every pair is linked.
    """
    dist = m.dist
    return line_system(m.size, (
        (sum(1 << x for x, (ax, bx) in enumerate(zip(row_a, dist[b]))
             if d_ab in (ax + bx, bx - ax, ax - bx)), (a, b))
        for a, row_a in enumerate(dist)
        for b, d_ab in enumerate(row_a) if b > a
    ))


def _distance_layers(g: Graph) -> list[list[int]]:
    """Breadth-first distance layers of every point of a connected graph:
    ``layers[a][k]`` is the mask of the points at distance k from a, for
    k from 0 to the eccentricity of a.  Raises DisconnectedError when
    some point is out of reach."""
    adj = g.adj
    full = (1 << g.size) - 1
    layers = []
    for source in range(g.size):
        seen = frontier = 1 << source
        row = [frontier]
        while seen != full:
            reached = 0
            while frontier:
                low = frontier & -frontier
                reached |= adj[low.bit_length() - 1]
                frontier ^= low
            frontier = reached & ~seen
            if not frontier:
                raise DisconnectedError(
                    "shortest-path metric needs a connected graph"
                )
            seen |= frontier
            row.append(frontier)
        layers.append(row)
    return layers


def graph_shortest_path_metric(g: Graph) -> MetricSpace:
    """Hop-count shortest-path metric of a connected graph.

    Hop counts are metric by construction, so, as for
    ``Graph._from_rows``, the axioms are not checked again."""
    n = g.size
    rows = []
    for layers in _distance_layers(g):
        dist_row = [0] * n
        for hops, layer in enumerate(layers):
            for x in bits_of(layer):
                dist_row[x] = hops
        rows.append(tuple(dist_row))
    return MetricSpace._from_rows(tuple(rows))


def metric_mask_planes(n: int, lo: int, hi: int) -> tuple[tuple[int, ...], int, int]:
    """Line counts and universal lines of the shortest-path metrics of
    the graphs on n vertices with edge masks lo..hi-1, all at once: in
    every returned int, bit i stands for the graph of mask lo + i.

    Returns (duplicate planes, universal, connected); a bit outside
    ``connected`` has no metric, and no duplicate or universal bit.
    Breadth-first search on the adjacency planes gives ``dist[a][x][k]``,
    the masks in which x is k steps from a.  Point x with d(a, x) = k is
    on the line of a pair at distance d exactly when d(b, x) is |k - d|
    or k + d.  Every pair is linked, so a metric has C(n, 2) lines less
    the pairs whose line repeats that of a lower-indexed pair
    (``_line_planes``).
    """
    full = (1 << hi - lo) - 1
    adj = _adjacency_planes(n, lo, hi)
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
    return duplicates, universal, connected
