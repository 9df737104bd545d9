"""Betweenness relations and the lines they induce.

A betweenness relation on points 0..n-1 is a set of triples (a, x, b),
read "x lies between a and b", symmetric in the outer pair.  The line
through two distinct points a and b collects the pair itself plus every
point witnessed between or beyond them:

    line(a, b) = {a, b} | {x : (x,a,b) or (a,x,b) or (a,b,x) in relation}

A point set is an int bitmask, bit p standing for point p, from
parsing to printing; only output turns a mask into a sorted point
list.  Lines are compared as masks: two generating pairs that produce
the same member set produce the same line.  This is the counting
convention used by every bound and sweep in the package; masks are
counted by sorting them (``distinct_count``), never by hashing them.

Every structure kind reads its lines from its own rows into one
grouping step, ``line_system``: graphs and posets (through their
comparability graph) from adjacency rows (``graphs.graph_lines``),
metric spaces from distance rows (``metrics.metric_lines``) and
3-uniform hypergraphs from an index of third points per pair
(``hypergraph_lines``).  ``BetweennessRelation`` and its evaluators
``all_lines``, ``line_mask_set`` and ``line_of`` are the test oracle
every fast path is checked against; no production path builds one.
The oracle is the definition above and nothing faster: a relation is
built only from its triples, by its one validating constructor.  The
package does not export it: the tests import it through
``tests/reference.py``, and it stays here because the benchmark's
per-layer tracer looks its names up in this module.
"""

from __future__ import annotations

from bisect import bisect_right
from functools import lru_cache
from itertools import combinations, count, groupby
from operator import itemgetter, ne
from typing import Iterable, Iterator, Sequence

from .errors import (
    IdenticalPointsError,
    MalformedEdgeError,
    SizeError,
    UnknownPointError,
)


@lru_cache(maxsize=None)
def pair_list(n: int) -> tuple[tuple[int, int], ...]:
    """All unordered point pairs on 0..n-1 in lexicographic order.

    The position of a pair in this tuple is its canonical index, used by
    the edge-bitmask and relation encodings throughout the package.
    """
    return tuple(combinations(range(n), 2))


def bits_of(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


# From this width on, ``set_bits`` walks a mask by bytes: each step of
# the shift walk copies the mask.  A full mask's bits, shifting against
# by bytes (2-core x86_64, Python 3.11): 0.6 against 0.9 us at 8 bits,
# 4.4 against 1.9 us at 32, 189 against 56 us at 1024.
WIDE_BITS = 32


@lru_cache(maxsize=None)
def _byte_bits() -> tuple[tuple[int, ...], ...]:
    """For every byte value, the positions of its set bits."""
    return tuple(tuple(k for k in range(8) if value >> k & 1) for value in range(256))


def set_bits(mask: int) -> Iterator[int]:
    """The bits ``bits_of`` yields, in time linear in the mask's width:
    from ``WIDE_BITS`` bits on, walked over the mask's bytes, each
    nonzero byte expanded from a table."""
    if mask.bit_length() < WIDE_BITS:
        return bits_of(mask)
    return _byte_walk(mask)


def _byte_walk(mask: int) -> Iterator[int]:
    table = _byte_bits()
    data = mask.to_bytes(mask.bit_length() + 7 >> 3, "little")
    for base, byte in zip(count(0, 8), data):
        if byte:
            for k in table[byte]:
                yield base + k


def check_point(n: int, point: int) -> None:
    """Reject a point identifier outside the ground set 0..n-1."""
    if not 0 <= point < n:
        raise UnknownPointError(f"point {point} not in ground set of size {n}")


def check_size(n: int) -> int:
    """Return n, the size of a ground set, after rejecting an empty one."""
    if n < 1:
        raise SizeError(f"ground set needs at least one point, got {n}")
    return n


class BetweennessRelation:
    """Immutable set of betweenness triples over points 0..size-1.

    The triple set is stored as two n x n bitmask matrices:

    * ``mid[a][b]``   - points x with (a, x, b) in the relation,
    * ``outer[x][a]`` - partners b with (a, x, b) in the relation.

    Both are filled symmetrically, so ``line_mask`` assembles the line
    of a pair with three lookups.  Instances never mutate after
    construction and all derived operations are pure, so they are safe
    to share across workers.
    """

    __slots__ = ("size", "_mid", "_outer")

    def __init__(self, size: int, triples: Iterable[tuple[int, int, int]]):
        n = check_size(size)
        mid = [[0] * n for _ in range(n)]
        outer = [[0] * n for _ in range(n)]
        for a, x, b in triples:
            for p in (a, x, b):
                check_point(n, p)
            if a == x or x == b or a == b:
                raise IdenticalPointsError(f"degenerate triple ({a}, {x}, {b})")
            xbit = 1 << x
            mid[a][b] |= xbit
            mid[b][a] |= xbit
            outer[x][a] |= 1 << b
            outer[x][b] |= 1 << a
        self.size = n
        self._mid = tuple(map(tuple, mid))
        self._outer = tuple(map(tuple, outer))

    def has(self, a: int, x: int, b: int) -> bool:
        """True when x lies between a and b."""
        for p in (a, x, b):
            check_point(self.size, p)
        return bool(self._outer[x][a] >> b & 1)

    def triples(self) -> Iterator[tuple[int, int, int]]:
        """Iterate every stored triple, both outer orientations included."""
        n = self.size
        for x in range(n):
            row = self._outer[x]
            for a in range(n):
                for b in bits_of(row[a]):
                    yield (a, x, b)

    def line_mask(self, a: int, b: int) -> int:
        """Members of the line through a and b, as a bitmask, for
        points the caller already knows to be distinct and in range;
        ``line_of`` checks them first."""
        return (
            (1 << a) | (1 << b)
            | self._mid[a][b]
            | self._outer[a][b]
            | self._outer[b][a]
        )


def line_of(rel: BetweennessRelation, a: int, b: int) -> int:
    """Members of the line through two distinct points, as a bitmask."""
    check_point(rel.size, a)
    check_point(rel.size, b)
    if a == b:
        raise IdenticalPointsError(f"a line needs two distinct points, got {a} twice")
    return rel.line_mask(a, b)


def all_lines(rel: BetweennessRelation) -> list[tuple[int, list[tuple[int, int]]]]:
    """Every distinct line, as a mask, with the pairs that generate it.

    A list of ``(mask, pairs)`` in output order, by ascending sorted
    member list; each pair list is in lexicographic order.  Every
    unordered pair generates exactly one line, so the lists together
    hold all C(n, 2) pairs.
    """
    n = rel.size
    if n < 2:
        raise SizeError("a line system needs at least two points")
    # Grouped by sorting, as ``distinct_count`` explains.
    lm = rel.line_mask
    generated = sorted([(lm(a, b), (a, b)) for a, b in pair_list(n)])
    groups = [
        (mask, [pair for _, pair in run])
        for mask, run in groupby(generated, key=itemgetter(0))
    ]
    groups.sort(key=lambda group: tuple(bits_of(group[0])))
    return groups


def line_mask_set(rel: BetweennessRelation) -> set[int]:
    """Distinct line member sets as bitmasks; the tests' reference count,
    which no production path calls."""
    n = rel.size
    if n < 2:
        raise SizeError("a line system needs at least two points")
    lm = rel.line_mask
    return {lm(a, b) for a, b in pair_list(n)}


def distinct_count(masks: Sequence[int]) -> int:
    """The number of distinct values in a sorted list of masks.

    Line masks are counted and grouped by sorting, never in a set or a
    dict: an int hashes to its value mod 2**61 - 1, so masks of points
    61 apart collide, and on large ground sets every collection keyed by
    masks is slow to build."""
    return len(masks) and 1 + sum(map(ne, masks, masks[1:]))


def line_system(
    n: int, pair_lines: Iterable[tuple[int, tuple]]
) -> Iterator[tuple[int, list[int], tuple | None]]:
    """Every distinct line of a structure on 0..n-1 with the pairs that
    generate it, as runs in the output order of ``all_lines``; the one
    builder of every kind.

    ``pair_lines`` yields ``(mask, (a, b))``, a < b, for the pairs whose
    line may hold a third point, the linked pairs.  Every other pair's
    line is its bare pair, which no other pair generates, so only the
    linked lines are grouped and sorted, the linked pairs are read off
    the groups, and no n x n table, collection keyed by masks or list
    of every line is built.  A linked pair whose line is its bare pair
    prints the same row as an unlinked one.

    Each run is ``(a, bare, line)``: ``bare`` is the ascending list of
    the points b whose bare pair (a, b) comes next, and ``line`` is the
    linked line after them, as ``(members, pairs)`` with ``members``
    the ascending tuple of its points, or None at the end of a's row.
    The linked lines are grouped here, so every error is raised by the
    call, before the first run.
    """
    if n < 2:
        raise SizeError("a line system needs at least two points")
    # Grouped by sorting, as ``distinct_count`` explains.
    grouped = sorted(
        (tuple(bits_of(mask)), [pair for _, pair in run])
        for mask, run in groupby(sorted(pair_lines), key=itemgetter(0))
    )
    # Linked lines by their lowest point, and each point's linked
    # partners above it.
    starting: list[list] = [[] for _ in range(n)]
    linked = [0] * n
    for line in grouped:
        starting[line[0][0]].append(line)
        for a, b in line[1]:
            linked[a] |= 1 << b
    return _runs(linked, starting)


def _runs(linked: Sequence[int], starting: list[list]) -> Iterator[tuple]:
    n = len(linked)
    for a, row in enumerate(linked):
        # The points a+1..n-1 whose pair with a is bare: the gaps
        # between the linked points above a.
        partners: list[int] = []
        gap = a + 1
        for c in bits_of(row >> gap << gap):
            partners += range(gap, c)
            gap = c + 1
        partners += range(gap, n)
        done = 0
        for line in starting[a]:
            # Bare pairs (a, b) with b <= c come before the line (a, c, ...):
            # on b == c the pair is a prefix of its member list.
            c = line[0][1]
            stop = bisect_right(partners, c, done)
            yield a, partners[done:stop], line
            done = stop
        yield a, partners[done:], None


def hypergraph_lines(n: int, edges: Iterable[Iterable[int]]) -> Iterator[tuple]:
    """The lines of a 3-uniform hypergraph on 0..n-1, as runs of
    ``line_system``: a pair plus the third points of the edges through it.
    Raises MalformedEdgeError on an edge that is not 3 distinct points
    of the ground set."""
    third: dict[tuple[int, int], int] = {}
    for edge in edges:
        vertices = tuple(edge)
        if len(vertices) != 3 or len(set(vertices)) != 3:
            raise MalformedEdgeError(
                f"edge {sorted(vertices)} is not a set of 3 distinct vertices"
            )
        for v in vertices:
            if not 0 <= v < n:
                raise MalformedEdgeError(
                    f"edge {sorted(vertices)} mentions vertex {v}, outside 0..{n - 1}"
                )
        p, q, r = sorted(vertices)
        for a, b, x in ((p, q, r), (p, r, q), (q, r, p)):
            third[a, b] = third.get((a, b), 0) | 1 << a | 1 << b | 1 << x
    return line_system(n, ((mask, pair) for pair, mask in third.items()))
