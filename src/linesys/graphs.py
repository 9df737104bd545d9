"""Simple undirected graphs and their triangle-based betweenness.

A point x lies between a and b exactly when abx is a triangle, so lines
of non-adjacent pairs are bare pairs and the line of an edge is the edge
plus the common neighborhood of its endpoints.  ``graph_lines`` and
``graph_line_count`` read the lines straight from the adjacency rows
and hold only those of edges in a triangle.
``graph_betweenness`` hands the triangles to the one constructor of
``core.BetweennessRelation``, the tests' oracle, which no production
path calls.
"""

from __future__ import annotations

from operator import and_
from typing import Iterable, Iterator, Sequence

from .core import (
    BetweennessRelation, bits_of, check_size, distinct_count, line_system, pair_list,
)
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
    def from_mask(cls, n: int, mask: int) -> "Graph":
        """Graph with edge set given by a bitmask over pair_list(n).

        Raises MalformedEdgeError unless 0 <= mask < 2**C(n, 2): any
        other mask sets a bit that names no pair of the ground set.
        """
        pairs = pair_list(check_size(n))
        if not 0 <= mask < 1 << len(pairs):
            raise MalformedEdgeError(
                f"edge mask {mask} is outside 0..2**{len(pairs)}-1 for n = {n}"
            )
        return cls._from_rows(_edge_rows(n, pairs, mask))

    def edge_mask(self) -> int:
        """Canonical edge-bitmask encoding over pair_list(n).

        The pairs (a, b) with b > a start at index a*(2n-a-1)/2 of
        pair_list(n), in the order of b, so each row's bits above a
        shift into place at once."""
        n = self.size
        mask = 0
        for a, row in enumerate(self.adj):
            mask |= row >> a + 1 << a * (2 * n - a - 1) // 2
        return mask


def _edge_rows(n: int, pairs: Sequence[tuple[int, int]], mask: int) -> tuple[int, ...]:
    """Adjacency rows on n vertices of the edges pairs[p], p a set bit of mask."""
    rows = [0] * n
    for p, (a, b) in enumerate(pairs):
        if mask >> p & 1:
            rows[a] |= 1 << b
            rows[b] |= 1 << a
    return tuple(rows)


def graph_betweenness(g: Graph) -> BetweennessRelation:
    """Betweenness relation of g by its definition: the triples (a, x, b)
    with a < b adjacent and x a common neighbor, so that abx is a
    triangle."""
    adj = g.adj
    return BetweennessRelation(g.size, (
        (a, x, b)
        for a, b in pair_list(g.size) if adj[a] >> b & 1
        for x in bits_of(adj[a] & adj[b])
    ))


def graph_lines(g: Graph) -> Iterator[tuple]:
    """Every distinct line of g, as runs of ``line_system``, read
    straight from the adjacency rows.  The line of an edge ab is {a, b}
    plus the common neighbors of a and b, so only the edges in a
    triangle are handed over: every other pair, edge or not, has its
    bare pair as its line."""
    adj = g.adj
    return line_system(len(adj), (
        (common | 1 << a | 1 << b, (a, b))
        for a, row in enumerate(adj)
        for b in bits_of(row >> a + 1 << a + 1)
        if (common := row & adj[b])
    ))


def graph_line_count(g: Graph) -> tuple[int, bool]:
    """Number of distinct lines of g and whether one of them is universal.

    The line of an edge ab is {a, b} plus the common neighbors of a and
    b, so only the lines of edges in a triangle can repeat: every other
    pair's line is its bare pair, which no other pair generates.  So
    the count is C(n, 2) less the number of edges in a triangle plus
    the number of distinct lines among them, read straight from the
    adjacency rows into a list and counted by sorting
    (``core.distinct_count``).  On a triangle-free graph the list stays
    empty.  The flag is read off the largest of these lines, since the
    ground set is the largest mask a line can have;
    ``has_universal_line`` would walk the rows again for every poset the
    poset sweep counts.
    """
    n = g.size
    if n < 2:
        raise SizeError("a line system needs at least two points")
    adj = g.adj
    lines = []
    for a, row in enumerate(adj):
        # Each edge once, from its larger end: the neighbors below a.
        below = row ^ (row >> a << a)
        if not below:  # no n-bit int for a vertex with no edge down
            continue
        ends = 1 << a
        while below:
            low = below & -below
            common = row & adj[low.bit_length() - 1]
            if common:
                lines.append(common | ends | low)
            below ^= low
    lines.sort()
    # On two points the one pair's line is the ground set.
    universal = n == 2 or lines[-1:] == [(1 << n) - 1]
    return n * (n - 1) // 2 - len(lines) + distinct_count(lines), universal


def has_universal_line(adj: Sequence[int]) -> bool:
    """Whether the graph with adjacency rows ``adj`` has a line holding
    every vertex, in O(n), for a caller that does not count the lines.
    The line of an edge ab is universal exactly when every other vertex
    is adjacent to both a and b, that is when two vertices are adjacent
    to all others; on two vertices the one pair's line is the ground
    set, edge or not.  ``graph_line_count`` reads the same flag from
    the lines it sorts anyway, so the poset sweep, which counts every
    poset's comparability graph with it, does not walk the rows a
    second time.  The rows are a ``Graph``'s, loop-free and inside the
    ground set, so a vertex adjacent to all others is one with n - 1
    neighbors, and no n-bit int is built per vertex."""
    others = len(adj) - 1
    seen = False
    for row in adj:
        if row.bit_count() == others:
            if seen:
                return True
            seen = True
    return len(adj) == 2


def _adjacency_planes(n: int, lo: int, hi: int) -> list[list[int]]:
    """The n x n adjacency planes of the edge masks lo..hi-1: bit i of
    adj[a][b] is set when the mask lo + i holds the pair ab, and each
    vertex is adjacent to itself in every mask.

    Bit p of a mask repeats with period 2^(p+1), so a pair with
    2^p < hi - lo takes the repeated pattern of the aligned block that
    encloses the range, shifted to lo; any higher bit switches at most
    once inside the range."""
    width = hi - lo
    full = (1 << width) - 1
    adj = [[full] * n for _ in range(n)]
    for p, (a, b) in enumerate(pair_list(n)):
        half = 1 << p
        if half < width:
            period = 2 * half
            start = lo - lo % period
            repeats = -(-(hi - start) // period)
            pattern = ((1 << half) - 1 << half) * (
                ((1 << period * repeats) - 1) // ((1 << period) - 1)
            )
            adj[a][b] = adj[b][a] = pattern >> lo - start & full
        else:
            head = (1 << min((lo // half + 1) * half, hi) - lo) - 1
            adj[a][b] = adj[b][a] = head if lo >> p & 1 else full ^ head
    return adj


def graph_mask_planes(n: int, lo: int, hi: int) -> tuple[tuple[int, ...], int, int, int]:
    """Line counts, universal lines and extremal shapes of the graphs on
    n >= 3 vertices with edge masks lo..hi-1, all at once: in every
    returned int, bit i stands for the graph of mask lo + i.

    Returns (duplicate planes, universal, shape, reported), the tuple
    of ``metrics.metric_mask_planes``, with every graph reported.  The
    line of a non-edge is its bare pair, which no other pair generates,
    so a graph has C(n, 2) lines less the number of its edges whose line
    equals the line of a lower-indexed edge; the duplicate planes hold
    that number in binary, least significant plane first.  The line of
    an edge ab holds x when x is adjacent to a and b (a and b count as
    adjacent to themselves), so two edges have the same line when every
    point's membership agrees, and an edge's line is universal when
    every point is a member.  The shape is ``is_extremal_graph``'s: for
    some v, every pair avoiding v is an edge and at most one pair at v
    is, or n = 3 and there is no edge.
    """
    pairs = pair_list(n)
    full = (1 << hi - lo) - 1
    adj = _adjacency_planes(n, lo, hi)
    edge = [adj[a][b] for a, b in pairs]
    members = [list(map(and_, adj[a], adj[b])) for a, b in pairs]
    duplicates, universal = _line_planes(edge, members, full)
    shape = 0
    for v, row in enumerate(adj):
        rest = full
        for p, (a, b) in enumerate(pairs):
            if a != v != b:
                rest &= edge[p]
        seen = twice = 0
        for x, at_v in enumerate(row):
            if x != v:
                twice |= seen & at_v
                seen |= at_v
        shape |= rest & ~twice
    if n == 3:
        shape |= full ^ (edge[0] | edge[1] | edge[2])
    return duplicates, universal, shape, full


def _line_planes(
    linked: Sequence[int], members: Sequence[Sequence[int]], full: int
) -> tuple[tuple[int, ...], int]:
    """(duplicate planes, universal) of the line systems of a chunk, bit
    i for its instance i, from each pair's ``linked`` plane (the pairs
    whose line is more than a bare pair no other pair generates) and its
    membership plane of every point.  The duplicate planes count, in
    binary with the least significant plane first, the linked pairs
    whose line equals that of a lower-indexed linked pair; a linked line
    holding every point is universal."""
    universal = 0
    duplicates: list[int] = []
    for p, member in enumerate(members):
        both = linked[p]
        if not both:
            continue
        line = both
        for x in member:
            line &= x
        universal |= line
        # Pair q repeats pair p's line where both are linked and no
        # point is a member of one line only: outside ^ members[q] has
        # a bit set where the two memberships agree.
        outside = [full ^ x for x in member]
        repeat = 0
        for q in range(p):
            same = both & linked[q]
            if not same:
                continue
            for x, y in zip(outside, members[q]):
                same &= x ^ y
                if not same:
                    break
            repeat |= same
        # Add this pair's repeat bit into the planes, carry by carry.
        for j, plane in enumerate(duplicates):
            if not repeat:
                break
            duplicates[j] = plane ^ repeat
            repeat &= plane
        if repeat:
            duplicates.append(repeat)
    return tuple(duplicates), universal


def is_extremal_graph(g: Graph) -> bool:
    """True when g is a clique on all but one vertex plus a vertex with
    at most one neighbor, or the empty graph on 3 vertices: exactly the
    graphs on n >= 3 vertices with no universal line and exactly n
    distinct lines.  On n = 2 every graph has the shape.

    The other n - 1 vertices of a vertex v of degree d span m - d of
    the m edges, so they form a clique exactly when d is
    m - C(n - 1, 2).  So g has the shape exactly when that surplus is
    at most 1 and some vertex has it as its degree.
    """
    n = g.size
    if n < 2:
        raise SizeError("the extremal shape is defined for graphs on >= 2 vertices")
    degrees = list(map(int.bit_count, g.adj))
    m = sum(degrees) // 2
    if n == 3 and m == 0:
        return True
    extra = m - (n - 1) * (n - 2) // 2
    return extra <= 1 and extra in degrees
