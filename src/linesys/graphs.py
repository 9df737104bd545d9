"""Simple undirected graphs and their triangle-based betweenness.

A point x lies between a and b exactly when abx is a triangle, so lines
of non-adjacent pairs are bare pairs and the line of an edge is the edge
plus the common neighborhood of its endpoints.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .core import BetweennessRelation, check_point, check_size, pair_list
from .errors import SizeError, UnknownPointError


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
                raise UnknownPointError(f"vertex {v} is adjacent to itself")
        for v, row in enumerate(adj):
            for u in range(v):
                if (row >> u & 1) != (adj[u] >> v & 1):
                    raise UnknownPointError(f"adjacency is not symmetric at {u}, {v}")
        self.size = n
        self.adj = adj

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        adj = [0] * n
        for a, b in edges:
            check_point(n, a)
            check_point(n, b)
            if a == b:
                raise UnknownPointError(f"self-loop at vertex {a}")
            adj[a] |= 1 << b
            adj[b] |= 1 << a
        return cls(adj)

    @classmethod
    def from_mask(cls, n: int, mask: int) -> "Graph":
        """Graph with edge set given by a bitmask over pair_list(n)."""
        adj = [0] * n
        for p, (a, b) in enumerate(pair_list(n)):
            if mask >> p & 1:
                adj[a] |= 1 << b
                adj[b] |= 1 << a
        return cls(adj)

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


def is_extremal_graph(g: Graph) -> bool:
    """True when g is a clique on all but one vertex plus a vertex with
    at most one neighbor: the only shape attaining exactly n distinct
    lines among graphs on n >= 4 vertices with no universal line.

    Every vertex is tried as the attached one, so ties (several valid
    decompositions) are handled.
    """
    n = g.size
    if n < 4:
        raise SizeError("the extremal shape is defined for graphs on >= 4 vertices")
    adj = g.adj
    full = (1 << n) - 1
    for v in range(n):
        if adj[v].bit_count() > 1:
            continue
        if all(u == v or (adj[u] | (1 << u) | (1 << v)) == full for u in range(n)):
            return True
    return False
