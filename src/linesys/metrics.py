"""Finite metric spaces with exact rational distances.

A point x lies between a and b when d(a,x) + d(x,b) = d(a,b).  Equality
is exact: distances are ints or Fractions, never floats, because a
tolerance-based comparison would silently change line counts.

``metric_lines`` reads the lines of a metric space from its distance
rows.  The shortest-path metric of a connected graph is read off its
breadth-first distance layers: ``graph_shortest_path_metric`` builds
the metric space, and ``graph_metric_line_count`` counts its lines
with no metric space built.
"""

from __future__ import annotations

import numbers
from operator import and_, or_
from typing import Iterable, Sequence

from .core import BetweennessRelation, bits_of, check_size, line_system
from .errors import DisconnectedError, MetricError, SizeError
from .graphs import Graph


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


def metric_lines(m: MetricSpace) -> list:
    """Every distinct line of m, as ``line_system`` lists them, read
    straight from the distance rows: x is on the line of a and b when
    d(a,b) is d(a,x) + d(x,b) (x between them, or x = a or b) or
    |d(a,x) - d(b,x)| (a or b between).  Every pair is linked.
    """
    dist = m.dist
    full = (1 << m.size) - 1
    return line_system([full ^ 1 << a for a in range(m.size)], (
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


def graph_metric_line_count(g: Graph) -> tuple[int, bool]:
    """Number of distinct lines of the shortest-path metric of a
    connected graph, and whether one of them is universal.

    Read straight from the distance layers ``L`` of ``_distance_layers``,
    with no metric space or relation built: a point x with
    d(a, x) = k lies on the line of a pair at distance d exactly when
    d(b, x) is d - k, k - d or k + d, so that line is the union over k
    of ``L[a][k] & (L[b][|k - d|] | L[b][k + d])``.  For an edge
    (d = 1) these are the points not equidistant from a and b.
    Raises DisconnectedError on a disconnected graph.
    """
    n = g.size
    if n < 2:
        raise SizeError("a line system needs at least two points")
    layers = _distance_layers(g)
    full = (1 << n) - 1
    # reflected[b][e + j] is L[b][|j|] for |j| <= e, the eccentricity
    # of b, followed by n empty layers, so that a slice starting at
    # e - d lists L[b][|k - d|] and one starting at e + d lists
    # L[b][k + d], for k = 0, 1, ...
    empty = [0] * n
    reflected = [row[:0:-1] + row + empty for row in layers]
    # The layers of a are disjoint, so summing masks cut from them
    # takes their union.
    lines = set()
    for a, row in enumerate(layers):
        above = full ^ ((2 << a) - 1)
        for b in bits_of(row[1] & above):
            lines.add(full ^ sum(map(and_, row, layers[b])))
        for d in range(2, len(row)):
            for b in bits_of(row[d] & above):
                ext = reflected[b]
                e = len(layers[b]) - 1
                lines.add(sum(map(and_, row, map(or_, ext[e - d :], ext[e + d :]))))
    return len(lines), full in lines
