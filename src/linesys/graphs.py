"""Simple undirected graphs and their triangle-based betweenness.

A point x lies between a and b exactly when abx is a triangle, so lines
of non-adjacent pairs are bare pairs and the line of an edge is the edge
plus the common neighborhood of its endpoints.  ``graph_lines`` and
``graph_line_count`` read the lines straight from the adjacency rows;
``graph_betweenness`` builds the relation for the generic evaluator of
``core``, which the tests use as their oracle.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import groupby
from operator import itemgetter
from typing import Iterable, Iterator, Sequence

from .core import BetweennessRelation, bits_of, check_point, check_size, pair_list
from .errors import IdenticalPointsError, MalformedEdgeError, SizeError, UnknownPointError


class Graph:
    """Immutable graph stored as per-vertex neighbor bitmasks."""

    __slots__ = ("size", "adj")

    def __init__(self, adjacency: Iterable[int]):
        adj = tuple(adjacency)
        n = check_size(len(adj))
        full = (1 << n) - 1
        for v, row in enumerate(adj):
            if row & ~full:
                raise UnknownPointError(f"adjacency row {v} mentions vertices >= {n}")
            if row >> v & 1:
                raise IdenticalPointsError(f"vertex {v} is adjacent to itself")
        for v, row in enumerate(adj):
            for u in range(v):
                if (row >> u & 1) != (adj[u] >> v & 1):
                    raise MalformedEdgeError(f"adjacency is not symmetric at {u}, {v}")
        self.size = n
        self.adj = adj

    @classmethod
    def _from_rows(cls, adjacency: Iterable[int]) -> "Graph":
        # For rows that are symmetric, loop-free and inside the ground
        # set by construction: skips the O(n^2) validation of __init__.
        g = cls.__new__(cls)
        g.adj = tuple(adjacency)
        g.size = check_size(len(g.adj))
        return g

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        adj = [0] * n
        for a, b in edges:
            check_point(n, a)
            check_point(n, b)
            if a == b:
                raise IdenticalPointsError(f"self-loop at vertex {a}")
            adj[a] |= 1 << b
            adj[b] |= 1 << a
        return cls._from_rows(adj)

    @classmethod
    def from_mask(cls, n: int, mask: int) -> "Graph":
        """Graph with edge set given by a bitmask over pair_list(n)."""
        return cls._from_rows(_edge_rows(check_size(n), pair_list(n), mask))

    def edge_mask(self) -> int:
        """Canonical edge-bitmask encoding over pair_list(n)."""
        mask = 0
        for p, (a, b) in enumerate(pair_list(self.size)):
            if self.adj[a] >> b & 1:
                mask |= 1 << p
        return mask

    def is_edge(self, a: int, b: int) -> bool:
        check_point(self.size, a)
        check_point(self.size, b)
        return bool(self.adj[a] >> b & 1)

    def degree(self, v: int) -> int:
        check_point(self.size, v)
        return self.adj[v].bit_count()

    def edges(self) -> Iterator[tuple[int, int]]:
        for a, b in pair_list(self.size):
            if self.adj[a] >> b & 1:
                yield (a, b)


def _edge_rows(n: int, pairs: Sequence[tuple[int, int]], mask: int) -> tuple[int, ...]:
    """Adjacency rows on n vertices of the edges pairs[p], p a set bit of mask."""
    rows = [0] * n
    for p, (a, b) in enumerate(pairs):
        if mask >> p & 1:
            rows[a] |= 1 << b
            rows[b] |= 1 << a
    return tuple(rows)


def graph_betweenness(g: Graph) -> BetweennessRelation:
    """Betweenness relation whose triples are the triangles of g.

    Triangle membership is symmetric in all three vertices, so the
    middle and outer matrices of the relation coincide: both hold the
    common neighborhood of each adjacent pair.
    """
    n = g.size
    adj = g.adj
    mat = [[0] * n for _ in range(n)]
    for a in range(n):
        row_a = adj[a]
        mat_a = mat[a]
        for b in range(a + 1, n):
            if row_a >> b & 1:
                common = row_a & adj[b]
                mat_a[b] = common
                mat[b][a] = common
    frozen = tuple(map(tuple, mat))
    return BetweennessRelation._from_matrices(n, frozen, frozen)


def graph_lines(g: Graph) -> list[tuple[int, list[tuple[int, int]]]]:
    """Every distinct line of g, as a mask, with the pairs that generate it.

    The same list as ``all_lines(graph_betweenness(g))``, read straight
    from the adjacency rows: lines in ascending order of their sorted
    member lists, each pair list in lexicographic order.  The line of a
    non-edge ab is the bare pair, generated by ab alone; the m edge
    lines are the only ones grouped and sorted, so no n x n table and
    no collection keyed by masks is built.
    """
    n = g.size
    if n < 2:
        raise SizeError("a line system needs at least two points")
    adj = g.adj
    full = (1 << n) - 1
    # above[a]: the points after a.
    above = [full ^ ((2 << a) - 1) for a in range(n)]
    generated = sorted(
        (row & adj[b] | 1 << a | 1 << b, (a, b))
        for a, row in enumerate(adj)
        for b in bits_of(row & above[a])
    )
    edge_lines = sorted(
        (tuple(bits_of(mask)), mask, [pair for _, pair in run])
        for mask, run in groupby(generated, key=itemgetter(0))
    )
    # Edge lines by their lowest point, as (second point, line).
    starting: list[list] = [[] for _ in range(n)]
    for members, mask, pairs in edge_lines:
        starting[members[0]].append((members[1], (mask, pairs)))
    lines = []
    for a, row in enumerate(adj):
        low = 1 << a
        partners = list(bits_of(above[a] & ~row))
        done = 0
        for c, line in starting[a]:
            # Bare pairs (a, b) with b <= c come before the line
            # (a, c, ...): on b == c the pair is a prefix of its member
            # list (two common neighbors need not be adjacent).
            stop = bisect_right(partners, c, done)
            lines += [(low | 1 << b, [(a, b)]) for b in partners[done:stop]]
            lines.append(line)
            done = stop
        lines += [(low | 1 << b, [(a, b)]) for b in partners[done:]]
    return lines


def graph_line_count(g: Graph) -> tuple[int, bool]:
    """Number of distinct lines of g and whether one of them is universal.

    The line of a non-edge is the bare pair, which no other pair
    generates, and the line of an edge ab is {a, b} plus the common
    neighbors of a and b.  So the count is C(n, 2) - m plus the number
    of distinct edge lines, read straight from the adjacency rows.
    """
    n = g.size
    if n < 2:
        raise SizeError("a line system needs at least two points")
    adj = g.adj
    m = 0
    edge_lines = set()
    for a, b in pair_list(n):
        row = adj[a]
        if row >> b & 1:
            m += 1
            edge_lines.add(row & adj[b] | 1 << a | 1 << b)
    full = (1 << n) - 1
    # On two points the bare pair of a non-edge is the whole ground set.
    universal = full in edge_lines or (n == 2 and m == 0)
    return n * (n - 1) // 2 - m + len(edge_lines), universal


def is_extremal_graph(g: Graph) -> bool:
    """True when g is a clique on all but one vertex plus a vertex with
    at most one neighbor, or the empty graph on 3 vertices: exactly the
    graphs on n >= 3 vertices with no universal line and exactly n
    distinct lines.  On n = 2 every graph has the shape.

    Every vertex is tried as the attached one, so ties (several valid
    decompositions) are handled.
    """
    n = g.size
    if n < 2:
        raise SizeError("the extremal shape is defined for graphs on >= 2 vertices")
    adj = g.adj
    # The shape has C(n-1, 2) or C(n-1, 2) + 1 edges, or none when n = 3.
    m = sum(map(int.bit_count, adj)) // 2
    if n == 3 and m == 0:
        return True
    if not 0 <= m - (n - 1) * (n - 2) // 2 <= 1:
        return False
    full = (1 << n) - 1
    for v in range(n):
        if adj[v].bit_count() > 1:
            continue
        if all(u == v or (adj[u] | (1 << u) | (1 << v)) == full for u in range(n)):
            return True
    return False
