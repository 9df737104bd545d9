"""Exhaustive verification sweeps with deterministic, parallel-safe output.

Each sweep enumerates every instance of its kind on n labeled points,
counts distinct lines (never through the constructive process, which
is what the sweeps cross-validate), and folds the results into a
summary.  Graphs are counted straight from their adjacency rows by
``graph_line_count``, and posets by the same counter on their
comparability graph, which induces the same lines; metrics go through
the generic relation evaluator.  Violations are data, not exceptions:
a sweep always completes and reports every failing instance.

Work is partitioned into canonically ordered chunks (edge-bitmask
ranges for graphs and metrics, backtracking-tree prefixes for posets),
so output is byte-identical across runs and worker counts.  Each chunk
renders its own jsonl rows, and the parent writes the chunks in order.

``SWEEP_KINDS`` is the one place where a sweepable kind is described:
its size range, chunk list, instance generator and whether its equality
cases are compared with an extremal shape.
"""

from __future__ import annotations

import json
import multiprocessing
import os
from dataclasses import dataclass, field, fields
from math import comb
from typing import Callable, Iterator, NamedTuple, TextIO

from .bounds import dbe_bound, min_pair_sum
from .construct import build_certificate, certificate_issues
from .core import line_mask_set, pair_list
from .enumeration import (
    GRAPH_ENUM_CAP,
    METRIC_ENUM_CAP,
    POSET_ENUM_CAP,
    _iter_states,
    poset_code,
    poset_from_state,
    poset_state_prefixes,
    state_code,
)
from .errors import CapError, DomainError, LinesysError
from .graphs import Graph, graph_line_count, is_extremal_graph
from .metrics import DisconnectedError, graph_shortest_path_metric, metric_betweenness
from .posets import comparability_graph
# Not called here: the per-layer tracer of perfbench/ wraps these names.
from .graphs import graph_betweenness  # noqa: F401
from .posets import is_extremal_poset, poset_betweenness  # noqa: F401

PAIR_SUM_SWEEP_CAP = 12

_CHUNK_MASKS = 1 << 12
_POSET_PREFIX_DEPTH = 3


@dataclass(frozen=True)
class VerificationReport:
    """Per-instance verification record.

    ``bound`` is n for graphs and metrics and the height-dependent bound
    for posets.  ``is_equality_case`` marks instances with no universal
    line and exactly n distinct lines; ``extremal_shape_match`` marks
    instances of the extremal shape (``is_extremal_graph``, on the
    comparability graph for posets; always False for metrics, which have
    no characterization here).
    """

    structure_kind: str
    n: int
    instance_id: int | str
    line_count: int
    bound: int
    has_universal: bool
    meets_bound: bool
    is_equality_case: bool
    extremal_shape_match: bool

    def json_line(self) -> str:
        # The instance dict holds exactly the fields, in declaration
        # order, which is the fixed key order of the jsonl format.
        return json.dumps(vars(self))


@dataclass
class _Fold:
    """Mergeable per-chunk aggregate."""

    enumerated: int = 0
    reported: int = 0
    checked: int = 0
    universal_count: int = 0
    violations: list = field(default_factory=list)
    equality_ids: list = field(default_factory=list)
    shape_ids: list = field(default_factory=list)
    mismatch_ids: list = field(default_factory=list)
    certificate_failures: list = field(default_factory=list)

    def merge(self, other: "_Fold") -> None:
        for f in fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))


@dataclass(frozen=True)
class SweepSummary:
    kind: str
    n: int
    enumerated: int
    reported: int
    checked: int
    universal_count: int
    violations: tuple[VerificationReport, ...]
    equality_ids: tuple[int, ...]
    shape_match_ids: tuple[int, ...]
    certificate_failures: tuple[tuple[int, str], ...]
    issues: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.issues


def _report(
    kind: str,
    n: int,
    instance_id: int | str,
    counted: tuple[int, bool],
    bound: int,
    shape: bool,
) -> VerificationReport:
    """The record every kind shares: ``counted`` is the number of
    distinct lines and whether one is universal, compared with
    ``bound``; equality is measured against n."""
    count, universal = counted
    return VerificationReport(
        structure_kind=kind,
        n=n,
        instance_id=instance_id,
        line_count=count,
        bound=bound,
        has_universal=universal,
        meets_bound=universal or count >= bound,
        is_equality_case=not universal and count == n,
        extremal_shape_match=shape,
    )


def graph_report(g: Graph, instance_id: int | str | None = None) -> VerificationReport:
    """Verification record for one graph: at least n distinct lines
    unless some line is universal, equality only on the extremal shape.

    Lines are counted by ``graph_line_count`` straight from the
    adjacency rows; no relation is built."""
    if instance_id is None:
        instance_id = g.edge_mask()
    n = g.size
    return _report(
        "graph", n, instance_id, graph_line_count(g), n, is_extremal_graph(g)
    )


def poset_report(p, instance_id: int | str | None = None):
    """Verification record and certificate defect for one poset.

    Returns (None, None) for height-1 posets: the height-dependent bound
    is not defined there.  Lines are counted and the shape is tested on
    the comparability graph, which induces the same lines; no relation
    is built.  The certificate is built and replayed only when no line
    is universal; its first defect (or construction error) is returned
    alongside the report.
    """
    if p.height < 2:
        return None, None
    if instance_id is None:
        instance_id = poset_code(p)
    bound = dbe_bound(p.size, p.height)
    g = comparability_graph(p)
    report = _report(
        "poset", p.size, instance_id, graph_line_count(g), bound, is_extremal_graph(g)
    )
    cert_issue = None
    if not report.has_universal:
        try:
            issues = certificate_issues(build_certificate(p), p)
            if issues:
                cert_issue = issues[0]
        except LinesysError as exc:
            cert_issue = f"certificate construction failed: {exc}"
    return report, cert_issue


def metric_report(m, instance_id: int | str | None = None) -> VerificationReport:
    """Verification record for one metric space: at least n distinct
    lines or a universal line (evidence sweep; no extremal shape).  The
    default id spells out the distance matrix, rows separated by ";"."""
    if instance_id is None:
        instance_id = ";".join(",".join(str(d) for d in row) for row in m.dist)
    masks = line_mask_set(metric_betweenness(m))
    counted = len(masks), (1 << m.size) - 1 in masks
    return _report("metric", m.size, instance_id, counted, m.size, False)


def shape_mismatch(report: VerificationReport) -> bool:
    """True when the kind has an extremal shape and, with no universal
    line, the equality case and the shape match disagree."""
    return (
        SWEEP_KINDS[report.structure_kind].compare_shape
        and not report.has_universal
        and report.is_equality_case != report.extremal_shape_match
    )


def _fold_report(fold: _Fold, report: VerificationReport) -> None:
    fold.reported += 1
    if report.has_universal:
        fold.universal_count += 1
    else:
        fold.checked += 1
    if not report.meets_bound:
        fold.violations.append(report)
    if report.is_equality_case:
        fold.equality_ids.append(report.instance_id)
    if report.extremal_shape_match:
        fold.shape_ids.append(report.instance_id)
    if shape_mismatch(report):
        fold.mismatch_ids.append(report.instance_id)


def _mask_chunks(n: int) -> list[tuple[int, int]]:
    total = 1 << len(pair_list(n))
    return [(lo, min(lo + _CHUNK_MASKS, total)) for lo in range(0, total, _CHUNK_MASKS)]


def _poset_chunks(n: int) -> list[tuple[int, ...]]:
    return poset_state_prefixes(n, _POSET_PREFIX_DEPTH)


def _graph_instances(n: int, chunk: tuple[int, int]) -> Iterator[tuple]:
    for mask in range(*chunk):
        yield graph_report(Graph.from_mask(n, mask), mask), None


def _poset_instances(n: int, prefix: tuple[int, ...]) -> Iterator[tuple]:
    for state in _iter_states(n, prefix):
        yield poset_report(poset_from_state(n, state), state_code(state))


def _metric_instances(n: int, chunk: tuple[int, int]) -> Iterator[tuple]:
    # Disconnected graphs have no shortest-path metric: they count as
    # enumerated but are not reported.
    for mask in range(*chunk):
        try:
            m = graph_shortest_path_metric(Graph.from_mask(n, mask))
        except DisconnectedError:
            yield None, None
            continue
        yield metric_report(m, mask), None


class _SweepKind(NamedTuple):
    min_n: int
    cap: int
    chunks: Callable[[int], list]  # n -> canonically ordered work units
    instances: Callable[[int, tuple], Iterator[tuple]]  # (n, unit) -> instances
    compare_shape: bool  # equality cases are checked against the extremal shape


# The one place a sweepable structure kind is described.  A kind's
# instance generator yields one (report, certificate defect) pair per
# enumerated instance, the report None when the bound does not apply.
# Entries call the module functions they name, so patching or tracing
# one of them (graph_report, certificate_issues, ...) reaches every sweep.
SWEEP_KINDS = {
    "graph": _SweepKind(3, GRAPH_ENUM_CAP, _mask_chunks, _graph_instances, True),
    "poset": _SweepKind(2, POSET_ENUM_CAP, _poset_chunks, _poset_instances, True),
    "metric": _SweepKind(2, METRIC_ENUM_CAP, _mask_chunks, _metric_instances, False),
}


def sweep_kind(kind: str, n: int) -> _SweepKind:
    """The ``SWEEP_KINDS`` entry of ``kind``, once n is in its range."""
    entry = SWEEP_KINDS.get(kind)
    if entry is None:
        raise DomainError(f"unknown sweep kind {kind!r}")
    if n > entry.cap:
        raise CapError(f"{kind} sweeps support n <= {entry.cap}, got {n}")
    if n < entry.min_n:
        raise DomainError(f"{kind} sweeps need n >= {entry.min_n}, got {n}")
    return entry


def _run_chunk(args):
    kind, n, chunk, render = args
    fold = _Fold()
    rows = []
    for report, cert_issue in SWEEP_KINDS[kind].instances(n, chunk):
        fold.enumerated += 1
        if report is None:
            continue
        _fold_report(fold, report)
        if cert_issue is not None:
            fold.certificate_failures.append((report.instance_id, cert_issue))
        if render:
            rows.append(report.json_line() + "\n")
    # The chunk's jsonl rows travel back as one string: rendering runs
    # in the workers, and the parent only writes.
    return fold, "".join(rows)


def run_sweep(
    kind: str, n: int, workers: int = 1, jsonl: TextIO | None = None
) -> SweepSummary:
    """Run one exhaustive sweep and fold the results into a summary.

    ``kind`` is a key of ``SWEEP_KINDS``.  With ``jsonl``, a text stream,
    every per-instance report is written to it as one JSON line, in
    canonical enumeration order.  Worker processes split the canonical
    chunk list and render their chunks' lines; the parent writes the
    chunks in order, so the fold and the stream are identical for every
    worker count.
    """
    entry = sweep_kind(kind, n)
    render = jsonl is not None
    args = [(kind, n, chunk, render) for chunk in entry.chunks(n)]
    total = _Fold()

    def consume(result) -> None:
        fold, text = result
        total.merge(fold)
        if text:
            jsonl.write(text)

    # No flag value may start more processes than there are chunks or CPUs.
    workers = min(workers, len(args), os.cpu_count() or 1)
    if workers <= 1:
        for arg in args:
            consume(_run_chunk(arg))
    else:
        ctx = multiprocessing.get_context("fork")
        with ctx.Pool(workers) as pool:
            for result in pool.imap(_run_chunk, args):
                consume(result)

    issues = []
    if total.violations:
        issues.append(
            f"{len(total.violations)} instances fall below their line bound"
        )
    if total.certificate_failures:
        issues.append(
            f"{len(total.certificate_failures)} certificates failed to verify"
        )
    if total.mismatch_ids:
        issues.append(
            f"{len(total.mismatch_ids)} instances where equality cases and the "
            f"extremal shape disagree"
        )
    return SweepSummary(
        kind=kind,
        n=n,
        enumerated=total.enumerated,
        reported=total.reported,
        checked=total.checked,
        universal_count=total.universal_count,
        violations=tuple(total.violations),
        equality_ids=tuple(total.equality_ids),
        shape_match_ids=tuple(total.shape_ids),
        certificate_failures=tuple(total.certificate_failures),
        issues=tuple(issues),
    )


@dataclass(frozen=True)
class PairSumSweepSummary:
    max_n: int
    cases: int
    mismatches: tuple[tuple[int, int, int, int], ...]
    smoothing_failures: tuple[tuple[int, int], ...]

    @property
    def ok(self) -> bool:
        return not self.mismatches and not self.smoothing_failures


def _exhaustive_min_pair_sum(n: int, parts: int) -> int:
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


def pair_sum_sweep(max_n: int) -> PairSumSweepSummary:
    """Check the balanced-split formula against exhaustive search for
    all 1 <= parts <= n <= max_n, plus the one-point smoothing step
    (moving an item off the larger of two groups differing by more than
    one never increases the pair total)."""
    if max_n < 1:
        raise DomainError(f"need max_n >= 1, got {max_n}")
    if max_n > PAIR_SUM_SWEEP_CAP:
        raise CapError(
            f"pair-sum sweeps support max_n <= {PAIR_SUM_SWEEP_CAP}, got {max_n}"
        )
    mismatches = []
    cases = 0
    for n in range(1, max_n + 1):
        for parts in range(1, n + 1):
            cases += 1
            formula = min_pair_sum(n, parts)
            search = _exhaustive_min_pair_sum(n, parts)
            if formula != search:
                mismatches.append((n, parts, formula, search))
    smoothing_failures = [
        (big, small)
        for big in range(2, max_n + 1)
        for small in range(0, big - 1)
        if comb(big, 2) + comb(small, 2)
        < comb(big - 1, 2) + comb(small + 1, 2)
    ]
    return PairSumSweepSummary(
        max_n=max_n,
        cases=cases,
        mismatches=tuple(mismatches),
        smoothing_failures=tuple(smoothing_failures),
    )
