"""Line-finding process for posets, with a recheckable certificate.

For a poset of height H >= 2 with no universal line the process
collects, by construction, at least dbe_bound(n, H) distinct lines:

* one pair line for every pair inside a level of the antichain
  partition (``layer_lines``; all distinct since distinct pairs of
  incomparable points give distinct 2-point lines), and
* at least H further lines found by walking a maximum chain
  c_1 < ... < c_H with a shrinking index window [bottom, top].

Each iteration looks at the line of the current window endpoints.  If
the window is closed the full-chain line is added and the process stops
(step kind "1").  Otherwise some point lies outside that line; it is
incomparable with at least one endpoint, and the step kind records how
the window reacts: fan out and stop when it is incomparable with both
("2a"), raise the bottom past the incomparable stretch when it sits
above ("2b"), or lower the top symmetrically ("2c").

The certificate stores every window position, probe point, and line
(as its generating pair and member mask), so an independent pass can
replay the bookkeeping and recompute each line from scratch.  Neither
side builds a betweenness relation, and they share no line evaluator:
the process reads each line from the order rows (the pair, everything
below its lower point or above its upper point, and everything between
them), while the replay reads it from the adjacency rows of the
comparability graph (the pair, plus the common neighbors of an
adjacent pair).  The replay's universal-line check,
``graphs.has_universal_line``, reads the same rows in O(n) rather than
counting every line: an edge's line holds every point exactly when both
its ends are adjacent to all other points.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import combinations
from operator import ne

from .bounds import dbe_bound
from .core import bits_of
from .errors import HeightError, InternalError, UniversalLineError
from .graphs import has_universal_line
from .posets import (
    Poset,
    comparability_graph,
    maximum_chain_through_levels,
    mirsky_partition,
)
# Not called here: the per-layer tracer of perfbench/ wraps these names.
from .core import line_of  # noqa: F401
from .posets import poset_betweenness  # noqa: F401


# A recorded line: its generating pair (ascending) and its member mask.
GeneratedLine = tuple[tuple[int, int], int]


class StepKind(str, Enum):
    """What an iteration did; values are the trace labels."""

    CLOSE = "1"          # window closed: add the full-chain line, stop
    SPLIT = "2a"         # probe incomparable with both endpoints: fan out, stop
    RAISE_BOTTOM = "2b"  # probe comparable above only: raise the bottom
    LOWER_TOP = "2c"     # probe comparable below only: lower the top


@dataclass(frozen=True)
class ProcessStep:
    """One iteration: the window it saw, what it chose, what it added.

    A step's iteration number is its 1-based position in
    ``LineCertificate.steps``.  ``bottom`` and ``top`` are 1-based
    positions on the chain.  ``probe`` is the smallest-index point
    outside the window line, or None when the window was already closed.
    """

    kind: StepKind
    bottom: int
    top: int
    probe: int | None
    lines: tuple[GeneratedLine, ...]


@dataclass(frozen=True)
class LineCertificate:
    """Recorded output of the line-finding process."""

    size: int
    height: int
    chain: tuple[int, ...]
    layer_lines: tuple[GeneratedLine, ...]
    steps: tuple[ProcessStep, ...]

    def process_lines(self) -> tuple[GeneratedLine, ...]:
        return tuple(line for step in self.steps for line in step.lines)

    @property
    def total_distinct(self) -> int:
        lines = self.layer_lines + self.process_lines()
        return _distinct_count([mask for _, mask in lines])

    @property
    def bound(self) -> int:
        return dbe_bound(self.size, self.height)


def build_certificate(p: Poset) -> LineCertificate:
    """Run the line-finding process on a poset with no universal line.

    Raises HeightError on height < 2 and UniversalLineError as soon as
    some window line covers every point (which can only happen when the
    no-universal-line precondition is violated).
    """
    height = p.height
    if height < 2:
        raise HeightError(
            f"the line-finding process needs height >= 2, got {height}"
        )
    n = p.size
    succ, pred = p.succ, p.pred

    def line(a: int, b: int) -> GeneratedLine:
        # The line of a < b in the order: the pair, everything below a or
        # above b, and everything between them; an incomparable pair's
        # line is the bare pair.
        pair = (a, b) if a < b else (b, a)
        if succ[b] >> a & 1:
            a, b = b, a
        elif not succ[a] >> b & 1:
            return pair, 1 << a | 1 << b
        return pair, 1 << a | 1 << b | pred[a] | succ[b] | succ[a] & pred[b]

    chain = maximum_chain_through_levels(p)
    # Points of one level are incomparable, so each layer line is its
    # bare pair; a level of one point has none.
    layer_lines = [
        ((a, b), 1 << a | 1 << b)
        for layer in mirsky_partition(p)
        if layer & layer - 1
        for a, b in combinations(bits_of(layer), 2)
    ]

    def lines_to(point: int, lo: int, hi: int) -> tuple[GeneratedLine, ...]:
        return tuple([line(c, point) for c in chain[lo - 1 : hi]])

    # The full-chain line, which joins chain positions 1 and height, ends
    # every run of the process.
    closing = lines_to(chain[0], height, height)
    full = (1 << n) - 1
    steps: list[ProcessStep] = []
    bottom, top = 1, height
    while True:
        if bottom == top:
            steps.append(ProcessStep(StepKind.CLOSE, bottom, top, None, closing))
            break
        low, high = chain[bottom - 1], chain[top - 1]
        window_mask = line(low, high)[1]
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
            steps.append(ProcessStep(StepKind.SPLIT, bottom, top, probe, fan))
            break
        new_bottom, new_top = bottom, top
        if not with_low:
            new_bottom = 1 + max(
                i for i in range(bottom, top) if not comparable >> chain[i - 1] & 1
            )
            kind, added = StepKind.RAISE_BOTTOM, lines_to(probe, bottom, new_bottom)
        else:
            new_top = -1 + min(
                i
                for i in range(bottom + 1, top + 1)
                if not comparable >> chain[i - 1] & 1
            )
            kind, added = StepKind.LOWER_TOP, lines_to(probe, new_top, top)
        steps.append(ProcessStep(kind, bottom, top, probe, added))
        bottom, top = new_bottom, new_top

    cert = LineCertificate(n, height, chain, tuple(layer_lines), tuple(steps))
    distinct, bound = cert.total_distinct, cert.bound
    if distinct < bound:
        raise InternalError(
            f"process found {distinct} distinct lines, below the guaranteed {bound}"
        )
    return cert


def certificate_issues(cert: LineCertificate, p: Poset) -> list[str]:
    """Replay a certificate against its poset and list every defect.

    Checks, independently of how the certificate was built: the chain
    runs through the levels; the layer lines are exactly the
    within-level pairs, each recomputing to its recorded members; every
    process line recomputes from its generator; window bookkeeping is
    monotone, moves strictly on every non-final step, and matches the
    recorded step kinds and probes; the incomparable-pair accounting
    identity holds; and the distinct total meets the bound.  Every line,
    the window lines the probes are checked against and the
    universal-line check (two vertices adjacent to all others) are read
    from the adjacency rows of the comparability graph of ``p``, not
    from the order rows the build reads, so the replay shares no
    evaluator with the build.  A point the certificate names outside the
    poset (a chain point, a line's generator or a probe) is reported as
    a defect, not raised.  Defects name a step by its 1-based position
    in ``cert.steps``, the iteration number the ``construct`` command
    prints.
    """
    issues: list[str] = []
    n, height = p.size, p.height
    if cert.size != n or cert.height != height:
        issues.append("certificate size or height does not match the poset")
        return issues
    adj = comparability_graph(p).adj

    points = range(n)
    chain = cert.chain
    chain_in_range = all(c in points for c in chain)
    if not chain_in_range:
        issues.append("chain names a point outside the poset")
    elif len(chain) != height or any(p.levels[c] != i for i, c in enumerate(chain, 1)):
        issues.append("chain does not run through the levels")
    succ = p.succ
    if chain_in_range and not all(succ[a] >> b & 1 for a, b in zip(chain, chain[1:])):
        issues.append("chain points are not increasing in the order")

    if not _covers_the_level_pairs(cert.layer_lines, mirsky_partition(p)):
        issues.append("layer lines do not cover exactly the within-level pairs")
    lines = cert.layer_lines + cert.process_lines()
    for pair, mask in lines:
        a, b = pair
        if a not in points or b not in points or a == b:
            issues.append(f"line of pair {pair} does not join two points of the poset")
        elif mask != _adjacency_line(adj, a, b):
            issues.append(f"line of pair {pair} recomputes to different members")

    if not cert.steps:
        issues.append("certificate records no process steps")
        return issues
    # The windows walk the chain, so they are replayed only on a chain
    # of the right length inside the poset.
    if chain_in_range and len(chain) == height:
        issues += _window_issues(cert, adj)
    if has_universal_line(adj):
        issues.append("poset has a universal line; certificate is out of scope")

    windows = [(s.bottom, s.top) for s in cert.steps]
    iterations = len(windows)
    moved = sum(
        windows[k + 1][0] - windows[k][0] + windows[k][1] - windows[k + 1][1] - 1
        for k in range(iterations - 1)
    )
    final_gap = windows[-1][1] - windows[-1][0]
    if moved != height - iterations - final_gap:
        issues.append(
            f"window accounting identity fails: {moved} != "
            f"{height} - {iterations} - {final_gap}"
        )

    distinct, bound = _distinct_count([mask for _, mask in lines]), cert.bound
    if distinct < bound:
        issues.append(f"{distinct} distinct lines, below the bound {bound}")
    return issues


def _covers_the_level_pairs(
    layer_lines: tuple[GeneratedLine, ...], layers: tuple[int, ...]
) -> bool:
    """Whether the pairs of ``layer_lines`` are exactly the pairs inside
    the levels ``layers``, in any order.  The order the build records
    them in is compared first, so only a reordered list is sorted."""
    expected = [
        pair
        for layer in layers
        if layer & layer - 1
        for pair in combinations(bits_of(layer), 2)
    ]
    recorded = [pair for pair, _ in layer_lines]
    return recorded == expected or sorted(recorded) == sorted(expected)


def _distinct_count(masks: list[int]) -> int:
    """The number of distinct masks, counted by sorting rather than in a
    set: an int hashes to its value mod 2**61 - 1, so the line masks of
    a large poset collide and a set of them is slow to build."""
    masks.sort()
    return len(masks) and 1 + sum(map(ne, masks, masks[1:]))


def _adjacency_line(adj: tuple[int, ...], a: int, b: int) -> int:
    """The line of a and b in the graph with adjacency rows ``adj``: the
    bare pair, plus the common neighbors when a and b are adjacent."""
    if adj[a] >> b & 1:
        return 1 << a | 1 << b | adj[a] & adj[b]
    return 1 << a | 1 << b


def _window_issues(cert: LineCertificate, adj: tuple[int, ...]) -> list[str]:
    """Defects of the recorded window walk along the certificate's chain,
    a chain of ``cert.height`` points of the graph with adjacency rows
    ``adj``: every window, step kind, probe and generating pair."""
    issues: list[str] = []
    chain, height = cert.chain, cert.height
    points = range(len(adj))

    def pairs_to(point: int, lo: int, hi: int) -> list[tuple[int, int]]:
        return [(c, point) if c < point else (point, c) for c in chain[lo - 1 : hi]]

    bottom, top = 1, height
    last = len(cert.steps)
    for pos, step in enumerate(cert.steps, start=1):
        if (step.bottom, step.top) != (bottom, top):
            issues.append(
                f"step {pos} records window {step.bottom}..{step.top}, "
                f"expected {bottom}..{top}"
            )
        stopping = step.kind in (StepKind.CLOSE, StepKind.SPLIT)
        if stopping != (pos == last):
            issues.append(f"step {pos} stops in the wrong place")
            break
        recorded = [pair for pair, _ in step.lines]
        if step.kind is StepKind.CLOSE:
            if bottom != top or step.probe is not None:
                issues.append("closing step on an open window")
            if recorded != pairs_to(chain[0], height, height):
                issues.append("closing step does not add the full-chain line")
            continue
        probe = step.probe
        if probe is None:
            issues.append(f"step {pos} lacks a probe point")
            break
        if probe not in points:
            issues.append(f"step {pos} probe {probe} is not a point of the poset")
            break
        low, high = chain[bottom - 1], chain[top - 1]
        if _adjacency_line(adj, low, high) >> probe & 1:
            issues.append(f"step {pos} probe {probe} lies inside the window line")
        with_low, with_high = adj[probe] >> low & 1, adj[probe] >> high & 1
        if step.kind is StepKind.SPLIT:
            if with_low or with_high:
                issues.append(f"step {pos} fans out on a comparable probe")
            fan = pairs_to(probe, bottom, top) + pairs_to(chain[0], height, height)
            if recorded != fan:
                issues.append(f"step {pos} fan does not cover the window")
            continue
        # A non-final step: the next one records the window it left.
        new_bottom, new_top = cert.steps[pos].bottom, cert.steps[pos].top
        if step.kind is StepKind.RAISE_BOTTOM:
            if with_low or not with_high:
                issues.append(f"step {pos} raises the bottom on the wrong probe")
            if not bottom < new_bottom <= top:
                issues.append(f"step {pos} does not strictly raise the bottom")
                break
            if recorded != pairs_to(probe, bottom, new_bottom):
                issues.append(f"step {pos} lines do not match the raised range")
            bottom = new_bottom
        elif step.kind is StepKind.LOWER_TOP:
            if with_high or not with_low:
                issues.append(f"step {pos} lowers the top on the wrong probe")
            if not bottom <= new_top < top:
                issues.append(f"step {pos} does not strictly lower the top")
                break
            if recorded != pairs_to(probe, new_top, top):
                issues.append(f"step {pos} lines do not match the lowered range")
            top = new_top
    return issues
