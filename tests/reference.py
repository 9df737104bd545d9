"""The line oracle, test-side builders and exhaustive iterators, and
the runs of ``core.line_system`` expanded into the oracle's entry list.

The generic ``BetweennessRelation`` evaluator and the relation builders
of each kind are the reference every fast path is checked against.
The package does not export them, and every test takes them from here,
so moving their code out of the package edits only this module.

The package sweeps graphs by edge-mask chunks and posets by pair-state
prefixes; the tests walk every instance one at a time through these
iterators and build small graphs from edge lists.  ``levels`` reads
each point's level off a poset's layer masks, the one record of its
level partition.

``exhaustive_min_pair_sum`` is the search that the closed form
``bounds.min_pair_sum`` is checked against."""

from itertools import combinations
from math import comb

from linesys import Graph, Poset, pair_list
from linesys.core import BetweennessRelation, all_lines, line_mask_set, line_of
from linesys.enumeration import _iter_states
from linesys.graphs import graph_betweenness
from linesys.metrics import graph_shortest_path_metric, metric_betweenness
from linesys.posets import is_extremal_poset, poset_betweenness


def graph_from_edges(n, edges):
    """The graph on 0..n-1 with the given edges, validated by ``Graph``."""
    adj = [0] * n
    for a, b in edges:
        adj[a] |= 1 << b
        adj[b] |= 1 << a
    return Graph(adj)


def enumerate_graphs(n):
    """All 2^C(n,2) labeled graphs on 0..n-1 in edge-bitmask order."""
    for mask in range(1 << len(pair_list(n))):
        yield Graph.from_mask(n, mask)


def enumerate_posets(n):
    """Every labeled strict partial order on 0..n-1, in ascending
    ``poset_code`` order."""
    for _, rows, _ in _iter_states(n):
        yield Poset(rows)


def levels(p):
    """The level of each point, read off ``p.layers``: v has level
    i + 1 when it is a bit of ``p.layers[i]``."""
    level = [0] * p.size
    for i, layer in enumerate(p.layers, 1):
        for v in range(p.size):
            if layer >> v & 1:
                level[v] = i
    return tuple(level)


def poset_state(p):
    """The state of each pair a < b in lexicographic pair order: 0
    incomparable, 1 a < b, 2 b < a."""
    return tuple(
        1 if p.succ[a] >> b & 1 else 2 if p.succ[b] >> a & 1 else 0
        for a, b in combinations(range(p.size), 2)
    )


def line_entries(runs):
    """One ``(mask, pairs)`` entry per line of ``core.line_system``'s
    runs, in run order, as the oracle ``all_lines`` returns them, after
    checking the shape of each run: bare partners above a in ascending
    order, and a linked line's members ascending and starting at a."""
    entries = []
    for a, bare, line in runs:
        assert all(a < b for b in bare) and bare == sorted(bare)
        entries += [(1 << a | 1 << b, [(a, b)]) for b in bare]
        if line is not None:
            members, pairs = line
            assert members[0] == a and list(members) == sorted(set(members))
            entries.append((sum(1 << p for p in members), pairs))
    return entries


def exhaustive_min_pair_sum(n: int, parts: int) -> int:
    """Exhaustive search for the smallest within-group pair total.

    The objective is invariant under reordering the groups, so scanning
    weakly decreasing size lists covers the value of every split of n
    items into ``parts`` (possibly empty) groups.
    """
    best: int | None = None

    def descend(remaining: int, slots: int, cap: int, acc: int) -> None:
        nonlocal best
        if slots == 1:
            if remaining <= cap:
                total = acc + comb(remaining, 2)
                if best is None or total < best:
                    best = total
            return
        for first in range(min(cap, remaining), -1, -1):
            if first * (slots - 1) < remaining - first:
                break
            descend(remaining - first, slots - 1, first, acc + comb(first, 2))

    descend(n, parts, n, 0)
    assert best is not None
    return best
