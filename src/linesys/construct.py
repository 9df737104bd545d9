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
replay the bookkeeping and recompute each line from scratch, through
the comparability graph rather than the order the process used.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import combinations

from .bounds import dbe_bound
from .core import bits_of, line_of
from .errors import HeightError, InternalError, UniversalLineError
from .graphs import graph_betweenness, graph_line_count
from .posets import (
    Poset,
    comparability_graph,
    maximum_chain_through_levels,
    mirsky_partition,
    poset_betweenness,
)


# A recorded line: its generating pair (ascending) and its member mask.
GeneratedLine = tuple[tuple[int, int], int]


def _line(rel, a: int, b: int) -> GeneratedLine:
    return ((a, b) if a < b else (b, a)), line_of(rel, a, b)


class StepKind(str, Enum):
    """What an iteration did; values are the trace labels."""

    CLOSE = "1"          # window closed: add the full-chain line, stop
    SPLIT = "2a"         # probe incomparable with both endpoints: fan out, stop
    RAISE_BOTTOM = "2b"  # probe comparable above only: raise the bottom
    LOWER_TOP = "2c"     # probe comparable below only: lower the top


@dataclass(frozen=True)
class ProcessStep:
    """One iteration: the window it saw, what it chose, what it added.

    ``bottom`` and ``top`` are 1-based positions on the chain.  ``probe``
    is the smallest-index point outside the window line, or None when
    the window was already closed.
    """

    iteration: int
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

    def distinct_member_sets(self) -> set[int]:
        return {mask for _, mask in self.layer_lines + self.process_lines()}

    @property
    def total_distinct(self) -> int:
        return len(self.distinct_member_sets())

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
    rel = poset_betweenness(p)
    chain = maximum_chain_through_levels(p)
    layer_lines = [
        _line(rel, a, b)
        for layer in mirsky_partition(p)
        for a, b in combinations(bits_of(layer), 2)
    ]

    def lines_to(point: int, lo: int, hi: int) -> tuple[GeneratedLine, ...]:
        return tuple(_line(rel, chain[i - 1], point) for i in range(lo, hi + 1))

    # The full-chain line, which joins chain positions 1 and height, ends
    # every run of the process.
    closing = lines_to(chain[0], height, height)
    full = (1 << n) - 1
    steps: list[ProcessStep] = []
    bottom, top = 1, height
    while True:
        iteration = len(steps) + 1
        if bottom == top:
            steps.append(
                ProcessStep(iteration, StepKind.CLOSE, bottom, top, None, closing)
            )
            break
        low, high = chain[bottom - 1], chain[top - 1]
        window_mask = rel.line_mask(low, high)
        if window_mask == full:
            raise UniversalLineError(
                f"the line of chain positions {bottom} and {top} contains all "
                f"points; the process requires a poset with no universal line"
            )
        probe = next(s for s in range(n) if not window_mask >> s & 1)
        with_low, with_high = p.comparable(probe, low), p.comparable(probe, high)
        if with_low and with_high:
            raise InternalError(
                "point outside the window line is comparable with both endpoints"
            )
        if not with_low and not with_high:
            fan = lines_to(probe, bottom, top) + closing
            steps.append(
                ProcessStep(iteration, StepKind.SPLIT, bottom, top, probe, fan)
            )
            break
        new_bottom, new_top = bottom, top
        if not with_low:
            new_bottom = 1 + max(
                i for i in range(bottom, top) if not p.comparable(chain[i - 1], probe)
            )
            kind, added = StepKind.RAISE_BOTTOM, lines_to(probe, bottom, new_bottom)
        else:
            new_top = -1 + min(
                i
                for i in range(bottom + 1, top + 1)
                if not p.comparable(chain[i - 1], probe)
            )
            kind, added = StepKind.LOWER_TOP, lines_to(probe, new_top, top)
        steps.append(ProcessStep(iteration, kind, bottom, top, probe, added))
        bottom, top = new_bottom, new_top

    cert = LineCertificate(n, height, chain, tuple(layer_lines), tuple(steps))
    if cert.total_distinct < cert.bound:
        raise InternalError(
            f"process found {cert.total_distinct} distinct lines, "
            f"below the guaranteed {cert.bound}"
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
    identity holds; and the distinct total meets the bound.  Lines and
    the universal-line check come from the comparability graph of ``p``,
    so the replay shares no evaluator with the build.
    """
    issues: list[str] = []
    n, height = p.size, p.height
    g = comparability_graph(p)
    rel = graph_betweenness(g)

    if cert.size != n or cert.height != height:
        issues.append("certificate size or height does not match the poset")
        return issues

    chain = cert.chain
    if len(chain) != height or any(p.levels[c] != i for i, c in enumerate(chain, 1)):
        issues.append("chain does not run through the levels")
    if not all(map(p.is_less, chain, chain[1:])):
        issues.append("chain points are not increasing in the order")

    expected_pairs = sorted(
        pair
        for layer in mirsky_partition(p)
        for pair in combinations(bits_of(layer), 2)
    )
    if sorted(pair for pair, _ in cert.layer_lines) != expected_pairs:
        issues.append("layer lines do not cover exactly the within-level pairs")
    for pair, mask in cert.layer_lines + cert.process_lines():
        if line_of(rel, *pair) != mask:
            issues.append(f"line of pair {pair} recomputes to different members")

    if not cert.steps:
        issues.append("certificate records no process steps")
        return issues
    def pairs_to(point: int, lo: int, hi: int) -> list[tuple[int, int]]:
        return [tuple(sorted((chain[i - 1], point))) for i in range(lo, hi + 1)]

    bottom, top = 1, height
    last = len(cert.steps)
    for pos, step in enumerate(cert.steps, start=1):
        if step.iteration != pos:
            issues.append(f"step {pos} records iteration {step.iteration}")
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
        low, high = chain[bottom - 1], chain[top - 1]
        if rel.line_mask(low, high) >> probe & 1:
            issues.append(f"step {pos} probe {probe} lies inside the window line")
        with_low, with_high = p.comparable(probe, low), p.comparable(probe, high)
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
    if graph_line_count(g)[1]:
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

    if cert.total_distinct < cert.bound:
        issues.append(
            f"{cert.total_distinct} distinct lines, below the bound {cert.bound}"
        )
    return issues
