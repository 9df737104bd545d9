"""Line-finding process for posets, with a recheckable certificate.

For a poset of height H >= 2 with no universal line the process
collects, by construction, at least dbe_bound(n, H) distinct lines:

* one pair line for every pair inside a level of the antichain
  partition (all distinct, since distinct pairs of incomparable points
  give distinct 2-point lines), and
* at least H further lines found by walking a maximum chain
  c_1 < ... < c_H with a shrinking index window [bottom, top].

Each iteration looks at the line of the current window endpoints.  If
the window is closed the full-chain line is added and the process stops
(step kind "1").  Otherwise some point lies outside that line; it is
incomparable with at least one endpoint, and the step kind records how
the window reacts: fan out and stop when it is incomparable with both
("2a"), raise the bottom past the incomparable stretch when it sits
above ("2b"), or lower the top symmetrically ("2c").

The certificate records only what cannot be derived, which is what the
``construct`` command prints: the chain, the levels as point masks
(``layers``), and every iteration's step kind (its printed label),
window, probe point and the member masks of the lines it added.  The
size, height and bound are the poset's.  A line's generating pair
follows from the chain, the window, the probe and the step kind.  The
distinct total is the C(|L|, 2) pairs of each level L plus the
distinct step lines that are not such a pair; the build does not count
it.  An independent pass replays the bookkeeping, derives
each step's generators, recomputes each recorded line once, and counts
the total once to compare it with the poset's bound, as the
``construct`` command does before it prints.  Neither side builds a
betweenness relation, and they share no line evaluator: the process
reads each line from the order rows (the pair, everything below its
lower point or above its upper point, and everything between them), the
replay from the adjacency rows of the comparability graph (the pair,
plus the common neighbors of an adjacent pair), which its O(n)
universal-line check, ``graphs.has_universal_line``, reads too.  The
process reads every window line and the full-chain line as a pair of
chain points, lower point first, with no case for a swapped or an
incomparable pair; the replay reads the chain it is given, which need
not be increasing, so it keeps the general line.  Each side reads a
probe's rows once per step.
"""

from __future__ import annotations

from functools import reduce
from itertools import combinations
from operator import and_, or_
from typing import Iterator, NamedTuple

from .core import bits_of, distinct_count, set_bits
from .errors import HeightError, InternalError, UniversalLineError
from .graphs import has_universal_line
from .posets import Poset, comparability_graph, maximum_chain_through_levels
# Not called here: the per-layer tracer of perfbench/ wraps these names.
from .core import line_of  # noqa: F401
from .posets import poset_betweenness  # noqa: F401


# What an iteration did: the step kinds, as ``construct`` prints them.
CLOSE = "1"          # window closed: add the full-chain line, stop
SPLIT = "2a"         # probe incomparable with both endpoints: fan out, stop
RAISE_BOTTOM = "2b"  # probe comparable above only: raise the bottom
LOWER_TOP = "2c"     # probe comparable below only: lower the top


class ProcessStep(NamedTuple):
    """One iteration: the window it saw, what it chose, what it added.

    A step's iteration number is its 1-based position in
    ``LineCertificate.steps``.  ``kind`` is the label ``construct``
    prints: ``CLOSE``, ``SPLIT``, ``RAISE_BOTTOM`` or ``LOWER_TOP``
    ("1", "2a", "2b", "2c").  ``bottom`` and ``top`` are 1-based
    positions on the chain.  ``probe`` is the smallest-index point
    outside the window line, or None when the window was already closed.
    ``lines`` are the member masks of the probe's lines with the chain
    points of the range the step covers, in chain order, then for a fan
    the full-chain line, which a closing step adds alone.
    """

    kind: str
    bottom: int
    top: int
    probe: int | None
    lines: tuple[int, ...]


class LineCertificate(NamedTuple):
    """Recorded output of the line-finding process, the fields
    ``construct`` prints.  ``layers`` are the poset's level masks,
    ``Poset.layers``, lowest level first, printed as their pairs; the
    size, height and bound are read from the poset."""

    chain: tuple[int, ...]
    layers: tuple[int, ...]
    steps: tuple[ProcessStep, ...]

    def layer_pairs(self) -> Iterator[tuple[int, int]]:
        """The pairs inside each level in order, each line a bare pair."""
        for layer in self.layers:
            yield from combinations(bits_of(layer), 2)

    @property
    def total_distinct(self) -> int:
        return _distinct_lines(self.layers, self.steps)


def build_certificate(p: Poset) -> LineCertificate:
    """Run the line-finding process on a poset with no universal line.

    Raises HeightError on height < 2 and UniversalLineError as soon as
    some window line covers every point (which can only happen when the
    no-universal-line precondition is violated).  The build does not
    count its lines: ``certificate_issues`` replays the certificate and
    compares its distinct total with the bound, and ``construct``
    compares ``total_distinct`` with ``bound`` before it prints.
    """
    height = p.height
    if height < 2:
        raise HeightError(
            f"the line-finding process needs height >= 2, got {height}"
        )
    n = p.size
    succ, pred = p.succ, p.pred
    chain = maximum_chain_through_levels(p)
    # The line of a < b in the order is the pair, everything below a or
    # above b, and everything between them; an incomparable pair's line
    # is the bare pair.  The chain is increasing, so the full-chain line
    # (positions 1 and height) and every window line join some a < b.
    a, b = chain[0], chain[-1]
    closing = (1 << a | 1 << b | pred[a] | succ[b] | succ[a] & pred[b],)

    def lines_to(point: int, lo: int, hi: int) -> tuple[int, ...]:
        # The lines of ``point`` with the chain points at positions lo..hi.
        above, below, ends = succ[point], pred[point], 1 << point
        lines = []
        for c in chain[lo - 1 : hi]:
            if below >> c & 1:  # c < point
                lines.append(ends | 1 << c | pred[c] | above | succ[c] & below)
            elif above >> c & 1:  # point < c
                lines.append(ends | 1 << c | below | succ[c] | above & pred[c])
            else:
                lines.append(ends | 1 << c)
        return tuple(lines)

    full = (1 << n) - 1
    steps: list[ProcessStep] = []
    bottom, top = 1, height
    while True:
        if bottom == top:
            steps.append(ProcessStep(CLOSE, bottom, top, None, closing))
            break
        low, high = chain[bottom - 1], chain[top - 1]
        window_mask = 1 << low | 1 << high | pred[low] | succ[high] | succ[low] & pred[high]
        if window_mask == full:
            raise UniversalLineError(
                f"the line of chain positions {bottom} and {top} contains all "
                f"points; the process requires a poset with no universal line"
            )
        # The smallest point outside the line: its lowest clear bit.
        probe = (window_mask + 1 & ~window_mask).bit_length() - 1
        comparable = succ[probe] | pred[probe]
        with_low, with_high = comparable >> low & 1, comparable >> high & 1
        if with_low and with_high:
            raise InternalError(
                "point outside the window line is comparable with both endpoints"
            )
        if not with_low and not with_high:
            fan = lines_to(probe, bottom, top) + closing
            steps.append(ProcessStep(SPLIT, bottom, top, probe, fan))
            break
        new_bottom, new_top = bottom, top
        if not with_low:
            # Past the highest chain point below the top that the probe
            # is incomparable with (the bottom is one).
            i = top - 1
            while comparable >> chain[i - 1] & 1:
                i -= 1
            new_bottom = i + 1
            kind, added = RAISE_BOTTOM, lines_to(probe, bottom, new_bottom)
        else:
            # Short of the lowest one above the bottom; the top is one.
            i = bottom + 1
            while comparable >> chain[i - 1] & 1:
                i += 1
            new_top = i - 1
            kind, added = LOWER_TOP, lines_to(probe, new_top, top)
        steps.append(ProcessStep(kind, bottom, top, probe, added))
        bottom, top = new_bottom, new_top
    return LineCertificate(chain, p.layers, tuple(steps))


def certificate_issues(cert: LineCertificate, p: Poset) -> list[str]:
    """Replay a certificate against its poset and list every defect.

    Checks, independently of how the certificate was built: the chain
    runs through the levels; the layers are the levels of ``p``,
    partition its points and are antichains; window bookkeeping is
    monotone, moves strictly on every non-final step, and matches the
    recorded step kinds and probes; each step records one line per
    generator its window, probe and kind give, each recomputing to its
    members; and the distinct total, counted from the certificate's own
    layers and lines, meets the bound of ``p`` (``Poset.bound``), not
    one the certificate carries.  Lines, window lines, antichains and
    the universal line are read from the adjacency rows of the comparability graph of
    ``p``, not from the order rows the build reads.  A point the
    certificate names outside the poset (in the chain, a layer or a
    probe) is reported as a defect, not raised.  Defects name a step by
    its 1-based position in ``cert.steps``, the iteration number the
    ``construct`` command prints.
    """
    n, height = p.size, p.height
    adj = comparability_graph(p).adj
    issues: list[str] = []

    chain = cert.chain
    chain_in_range = all(map(range(n).__contains__, chain))
    if not chain_in_range:
        issues.append("chain names a point outside the poset")
    elif len(chain) != height or not all(map(and_, p.layers, map((1).__lshift__, chain))):
        issues.append("chain does not run through the levels")
    # Each chain point has its predecessor on the chain in its pred row.
    below = map((1).__lshift__, chain)
    if chain_in_range and not all(map(and_, map(p.pred.__getitem__, chain[1:]), below)):
        issues.append("chain points are not increasing in the order")

    layers = cert.layers
    if layers != p.layers:
        issues.append("layers are not the levels of the poset")
    if reduce(or_, layers, 0) != (1 << n) - 1 or sum(map(int.bit_count, layers)) != n:
        issues.append("layers do not partition the points")
    else:
        for i, layer in enumerate(layers, 1):
            if layer & layer - 1:  # a one-point layer is an antichain
                for v in set_bits(layer):
                    if adj[v] & layer:
                        issues.append(f"layer {i} is not an antichain")
                        break

    if not cert.steps:
        issues.append("certificate records no process steps")
        return issues
    # The windows walk the chain, so they are replayed only on a chain
    # of the right length inside the poset.
    if chain_in_range and len(chain) == height:
        issues += _window_issues(cert, adj)
    if has_universal_line(adj):
        issues.append("poset has a universal line; certificate is out of scope")
    if height < 2:  # the bound is defined from height 2 up
        issues.append("poset has height below 2; certificate is out of scope")
        return issues

    distinct, bound = _distinct_lines(layers, cert.steps), p.bound
    if distinct < bound:
        issues.append(f"{distinct} distinct lines, below the bound {bound}")
    return issues


def _distinct_lines(layers: tuple[int, ...], steps: tuple[ProcessStep, ...]) -> int:
    """The C(|L|, 2) bare pairs in each layer L plus the distinct step
    lines that are no such pair, counted by ``core.distinct_count``.
    Plain loops: a ``map`` per 2-bit mask and per layer slows the n = 5
    poset sweep by about 5 %."""
    masks = []
    for step in steps:
        for mask in step.lines:
            if mask.bit_count() == 2:
                for layer in layers:
                    if mask & layer == mask:
                        break
                else:
                    masks.append(mask)
            else:
                masks.append(mask)
    masks.sort()
    pairs = 0
    for layer in layers:
        size = layer.bit_count()
        pairs += size * (size - 1) // 2
    return pairs + distinct_count(masks)


def _adjacency_line(adj: tuple[int, ...], a: int, b: int) -> int:
    """The line of a and b in the graph with adjacency rows ``adj``: the
    bare pair, plus the common neighbors when a and b are adjacent."""
    if adj[a] >> b & 1:
        return 1 << a | 1 << b | adj[a] & adj[b]
    return 1 << a | 1 << b


def _window_issues(cert: LineCertificate, adj: tuple[int, ...]) -> list[str]:
    """Defects of the recorded window walk along the certificate's chain,
    one point per level of the poset whose comparability graph has the
    adjacency rows ``adj``: every window, step kind and probe, and each step's lines,
    recomputed from the generators the walk derives."""
    issues: list[str] = []
    chain, steps = cert.chain, cert.steps
    points = range(len(adj))
    closing = (_adjacency_line(adj, chain[0], chain[-1]),)

    def lines_to(point: int, lo: int, hi: int) -> tuple[int, ...]:
        # ``_adjacency_line(adj, c, point)`` for the chain points at
        # positions lo..hi.
        row, ends = adj[point], 1 << point
        return tuple([
            ends | 1 << c | adj[c] & row if row >> c & 1 else ends | 1 << c
            for c in chain[lo - 1 : hi]
        ])

    bottom, top, last = 1, len(chain), len(steps)
    for pos, (kind, step_bottom, step_top, probe, lines) in enumerate(steps, start=1):
        if step_bottom != bottom or step_top != top:
            issues.append(
                f"step {pos} records window {step_bottom}..{step_top}, "
                f"expected {bottom}..{top}"
            )
        if (kind in (CLOSE, SPLIT)) != (pos == last):
            issues.append(f"step {pos} stops in the wrong place")
            break
        if kind == CLOSE:
            if bottom != top or probe is not None:
                issues.append("closing step on an open window")
            expected = closing
            miscount = "closing step does not add the full-chain line"
        elif probe is None:
            issues.append(f"step {pos} lacks a probe point")
            break
        elif probe not in points:
            issues.append(f"step {pos} probe {probe} is not a point of the poset")
            break
        else:
            low, high = chain[bottom - 1], chain[top - 1]
            if _adjacency_line(adj, low, high) >> probe & 1:
                issues.append(f"step {pos} probe {probe} lies inside the window line")
            row = adj[probe]
            with_low, with_high = row >> low & 1, row >> high & 1
            if kind == SPLIT:
                if with_low or with_high:
                    issues.append(f"step {pos} fans out on a comparable probe")
                expected = lines_to(probe, bottom, top) + closing
                miscount = f"step {pos} fan does not cover the window"
            elif kind == RAISE_BOTTOM:
                if with_low or not with_high:
                    issues.append(f"step {pos} raises the bottom on the wrong probe")
                # Not the last step: the next one records the window left.
                new_bottom = steps[pos].bottom
                if not bottom < new_bottom <= top:
                    issues.append(f"step {pos} does not strictly raise the bottom")
                    break
                expected = lines_to(probe, bottom, new_bottom)
                miscount = f"step {pos} lines do not match the raised range"
                bottom = new_bottom
            elif kind == LOWER_TOP:
                if with_high or not with_low:
                    issues.append(f"step {pos} lowers the top on the wrong probe")
                new_top = steps[pos].top
                if not bottom <= new_top < top:
                    issues.append(f"step {pos} does not strictly lower the top")
                    break
                expected = lines_to(probe, new_top, top)
                miscount = f"step {pos} lines do not match the lowered range"
                top = new_top
            else:
                issues.append(f"step {pos} records an unknown step kind")
                break
        if len(lines) != len(expected):
            issues.append(miscount)
        elif lines != expected:
            issues += [
                f"step {pos} line {i} recomputes to different members"
                for i, (mask, line) in enumerate(zip(lines, expected), 1)
                if mask != line
            ]
    return issues
