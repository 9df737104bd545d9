"""Exhaustive verification sweeps with deterministic, parallel-safe output.

Each sweep enumerates every instance of its kind on n labeled points,
counts distinct lines (never through the constructive process, which
is what the sweeps cross-validate), and folds the results into a
summary.  Graphs are counted straight from their adjacency rows by
``graph_line_count``, and posets by the same counter on their
comparability graph, which induces the same lines.  The shortest-path
metric of a graph is counted by ``graph_metric_line_count`` straight
from its breadth-first distance layers, with no metric space or
relation built.  Violations are data, not exceptions: a sweep always
completes and reports every failing instance.

Work is partitioned into canonically ordered chunks (edge-bitmask
ranges for graphs and metrics, backtracking-tree prefixes for posets),
so output is byte-identical across runs and worker counts.  One chunk
kernel serves every kind: the kind's instance generator yields plain
field tuples, which the kernel folds into counters and id lists and
renders as jsonl rows from one template per (kind, n).  Graph and
metric chunks OR each mask's adjacency rows from two small tables
built per chunk.  A ``VerificationReport`` is built only for
``verify`` and for the violations a sweep records.  The parent writes
the chunks' rows in order.

``SWEEP_KINDS`` is the one place where a sweepable kind is described:
its size range, chunk list, instance generator and whether its equality
cases are compared with an extremal shape.
"""

from __future__ import annotations

import json
import multiprocessing
import os
from dataclasses import dataclass, fields
from math import comb
from operator import or_
from typing import Callable, Iterator, NamedTuple, TextIO

from .bounds import dbe_bound, min_pair_sum
from .construct import build_certificate, certificate_issues
from .core import pair_list
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
from .errors import CapError, DomainError, LinesysError, MetricError
from .graphs import Graph, _edge_rows, graph_line_count, is_extremal_graph
from .metrics import DisconnectedError, graph_metric_line_count, metric_lines
from .posets import comparability_graph
# Not called here: the per-layer tracer of perfbench/ wraps these names.
from .core import line_mask_set  # noqa: F401
from .graphs import graph_betweenness  # noqa: F401
from .metrics import graph_shortest_path_metric, metric_betweenness  # noqa: F401
from .posets import is_extremal_poset, poset_betweenness  # noqa: F401

PAIR_SUM_SWEEP_CAP = 12

_CHUNK_MASKS = 1 << 12
# Pair bits covered by the per-chunk table of low adjacency rows.
_LOW_PAIRS = 8
_POSET_PREFIX_DEPTH = 3


@dataclass(frozen=True)
class VerificationReport:
    """Verification record of one instance, built for ``verify`` and
    for the violations a sweep records; sweeps render their other rows
    straight from the instance fields.

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
        """The report's jsonl row, without its newline.  An int id too
        long to print (beyond Python's int-to-str digit limit, as the
        default id of a large graph or poset can be) raises DomainError."""
        kind, n, *values = vars(self).values()
        try:
            return _render_rows(_row_template(kind, n), [values])[:-1]
        except ValueError:  # the int-to-str digit limit
            raise DomainError(
                f"the instance id of this {kind} is too long to print as jsonl"
            ) from None


_JSON_BOOL = ("false", "true")


def _row_template(kind: str, n: int) -> str:
    """The jsonl row of every (kind, n) instance, with a %-slot for each
    per-instance field: the fields of ``VerificationReport`` in
    declaration order, which is the fixed key order of the format."""
    head = json.dumps({"structure_kind": kind, "n": n})[:-1]
    return (
        head + ', "instance_id": %s, "line_count": %d, "bound": %d, '
        '"has_universal": %s, "meets_bound": %s, "is_equality_case": %s, '
        '"extremal_shape_match": %s}\n'
    )


def _render_rows(template: str, rows: list) -> str:
    """jsonl rows from ``_row_template``, one per tuple of the report's
    fields after ``n`` (instance id, line count, bound and the four
    flags): each byte for byte ``json.dumps`` of the report, plus a
    newline."""
    return "".join([
        template % (
            json.dumps(instance_id) if isinstance(instance_id, str) else instance_id,
            count, bound, _JSON_BOOL[universal], _JSON_BOOL[meets],
            _JSON_BOOL[equality], _JSON_BOOL[shape],
        )
        for instance_id, count, bound, universal, meets, equality, shape in rows
    ])


@dataclass(frozen=True)
class SweepSummary:
    """What a sweep, or one chunk of it, found: counters and id lists in
    canonical enumeration order.

    ``checked`` (reported instances with no universal line), ``issues``
    and ``ok`` are read off those fields.  ``mismatch_ids`` lists the
    instances whose equality case and extremal shape disagree, for kinds
    with an extremal shape.
    """

    kind: str
    n: int
    enumerated: int = 0
    reported: int = 0
    universal_count: int = 0
    violations: tuple[VerificationReport, ...] = ()
    equality_ids: tuple[int | str, ...] = ()
    shape_match_ids: tuple[int | str, ...] = ()
    mismatch_ids: tuple[int | str, ...] = ()
    certificate_failures: tuple[tuple[int | str, str], ...] = ()

    def merge(self, other: "SweepSummary") -> "SweepSummary":
        """This summary followed by ``other``: counters add up and id
        lists concatenate."""
        return SweepSummary(self.kind, self.n, *(
            getattr(self, f.name) + getattr(other, f.name) for f in fields(self)[2:]
        ))

    @property
    def checked(self) -> int:
        return self.reported - self.universal_count

    @property
    def issues(self) -> tuple[str, ...]:
        """One line per kind of failure found, empty when there is none."""
        failures = (
            (self.violations, "instances fall below their line bound"),
            (self.certificate_failures, "certificates failed to verify"),
            (
                self.mismatch_ids,
                "instances where equality cases and the extremal shape disagree",
            ),
        )
        return tuple(f"{len(ids)} {what}" for ids, what in failures if ids)

    @property
    def ok(self) -> bool:
        return not self.issues


def _judge(n: int, count: int, universal: bool, bound: int) -> tuple[bool, bool]:
    """(meets the bound, is an equality case): the bound holds when some
    line is universal or there are ``bound`` lines; equality is
    measured against n."""
    return universal or count >= bound, not universal and count == n


def _report(kind: str, n: int, instance: tuple) -> VerificationReport:
    """The record of one instance's fields, as ``SWEEP_KINDS`` yields them."""
    instance_id, count, universal, bound, shape, _ = instance
    return VerificationReport(
        kind, n, instance_id, count, bound, universal,
        *_judge(n, count, universal, bound), shape,
    )


def _graph_fields(g: Graph, instance_id: int | str) -> tuple:
    count, universal = graph_line_count(g)
    return instance_id, count, universal, g.size, is_extremal_graph(g), None


def _poset_fields(p, instance_id: int | str) -> tuple | None:
    if p.height < 2:
        return None
    bound = dbe_bound(p.size, p.height)
    g = comparability_graph(p)
    count, universal = graph_line_count(g)
    cert_issue = None
    if not universal:
        try:
            issues = certificate_issues(build_certificate(p), p)
            if issues:
                cert_issue = issues[0]
        except LinesysError as exc:
            cert_issue = f"certificate construction failed: {exc}"
    return instance_id, count, universal, bound, is_extremal_graph(g), cert_issue


def _metric_fields(m, instance_id: int | str) -> tuple:
    masks = {mask for mask, _ in metric_lines(m)}
    return instance_id, len(masks), (1 << m.size) - 1 in masks, m.size, False, None


def graph_report(g: Graph, instance_id: int | str | None = None) -> VerificationReport:
    """Verification record for one graph: at least n distinct lines
    unless some line is universal, equality only on the extremal shape.

    Lines are counted by ``graph_line_count`` straight from the
    adjacency rows; no relation is built."""
    if instance_id is None:
        instance_id = g.edge_mask()
    return _report("graph", g.size, _graph_fields(g, instance_id))


def poset_report(p, instance_id: int | str | None = None):
    """Verification record and certificate defect for one poset.

    Returns (None, None) for height-1 posets: the height-dependent bound
    is not defined there.  Lines are counted and the shape is tested on
    the comparability graph, which induces the same lines; no relation
    is built.  The certificate is built and replayed only when no line
    is universal; its first defect (or construction error) is returned
    alongside the report.
    """
    if instance_id is None:
        instance_id = poset_code(p)
    instance = _poset_fields(p, instance_id)
    if instance is None:
        return None, None
    return _report("poset", p.size, instance), instance[5]


def metric_report(m, instance_id: int | str | None = None) -> VerificationReport:
    """Verification record for one metric space: at least n distinct
    lines or a universal line (evidence sweep; no extremal shape).  The
    default id spells out the distance matrix, rows separated by ";";
    a distance too long to print (beyond Python's int-to-str digit
    limit) raises MetricError, so such a metric needs an explicit id."""
    if instance_id is None:
        try:
            instance_id = ";".join(",".join(str(d) for d in row) for row in m.dist)
        except ValueError:  # the int-to-str digit limit
            raise MetricError(
                "a distance is too long to spell out as the instance id"
            ) from None
    return _report("metric", m.size, _metric_fields(m, instance_id))


def shape_mismatch(report: VerificationReport) -> bool:
    """True when the kind has an extremal shape and, with no universal
    line, the equality case and the shape match disagree."""
    return (
        SWEEP_KINDS[report.structure_kind].compare_shape
        and not report.has_universal
        and report.is_equality_case != report.extremal_shape_match
    )


def _mask_chunks(n: int) -> list[tuple[int, int]]:
    total = 1 << len(pair_list(n))
    return [(lo, min(lo + _CHUNK_MASKS, total)) for lo in range(0, total, _CHUNK_MASKS)]


def _poset_chunks(n: int) -> list[tuple[int, ...]]:
    return poset_state_prefixes(n, _POSET_PREFIX_DEPTH)


def _chunk_graphs(n: int, chunk: tuple[int, int]) -> Iterator[Graph]:
    """The graph of every edge mask in the chunk, in ascending mask order.

    A mask's adjacency rows OR together two tables built once per chunk:
    one entry for every value of the low ``_LOW_PAIRS`` pair bits (each
    from the entry without its lowest bit), and one for each value of
    the higher bits that occurs in the chunk."""
    lo, hi = chunk
    pairs = pair_list(n)
    low_pairs, high_pairs = pairs[:_LOW_PAIRS], pairs[_LOW_PAIRS:]
    single = [_edge_rows(n, low_pairs, 1 << p) for p in range(len(low_pairs))]
    low = [(0,) * n]
    for value in range(1, 1 << len(low_pairs)):
        rest = value & (value - 1)
        low.append(tuple(map(or_, low[rest], single[(value ^ rest).bit_length() - 1])))
    span = len(low)
    for high_value in range(lo // span, (hi - 1) // span + 1):
        high = _edge_rows(n, high_pairs, high_value)
        base = high_value * span
        yield from [
            Graph._from_rows(map(or_, high, rows))
            for rows in low[max(lo - base, 0) : min(hi - base, span)]
        ]


def _graph_instances(n: int, chunk: tuple[int, int]) -> Iterator[tuple]:
    for mask, g in enumerate(_chunk_graphs(n, chunk), chunk[0]):
        yield _graph_fields(g, mask)


def _poset_instances(n: int, prefix: tuple[int, ...]) -> Iterator[tuple | None]:
    for state in _iter_states(n, prefix):
        yield _poset_fields(poset_from_state(n, state), state_code(state))


def _metric_instances(n: int, chunk: tuple[int, int]) -> Iterator[tuple | None]:
    # Disconnected graphs have no shortest-path metric: they count as
    # enumerated but are not reported.
    for mask, g in enumerate(_chunk_graphs(n, chunk), chunk[0]):
        try:
            count, universal = graph_metric_line_count(g)
        except DisconnectedError:
            yield None
            continue
        yield mask, count, universal, n, False, None


class _SweepKind(NamedTuple):
    min_n: int
    cap: int
    chunks: Callable[[int], list]  # n -> canonically ordered work units
    instances: Callable[[int, tuple], Iterator[tuple | None]]  # (n, unit) -> instances
    compare_shape: bool  # equality cases are checked against the extremal shape


# The one place a sweepable structure kind is described.  A kind's
# instance generator yields, per enumerated instance, its fields
# (instance id, number of distinct lines, whether one is universal,
# bound, extremal shape match, certificate defect or None), or None
# when the bound does not apply.  Generators look up the module
# functions they call (graph_line_count, graph_metric_line_count,
# is_extremal_graph, certificate_issues, ...) at call time, so patching
# or tracing one of them reaches every sweep that calls it.
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


def _run_chunk(args) -> tuple[SweepSummary, str]:
    """The summary and (when ``render``) the jsonl rows of one chunk.

    The one kernel of every kind: it folds the instance fields into
    plain counters and id lists, renders rows from the (kind, n)
    template and builds a ``VerificationReport`` only for a violation.
    """
    kind, n, chunk, render = args
    entry = SWEEP_KINDS[kind]
    compare_shape = entry.compare_shape
    template = _row_template(kind, n)
    enumerated = reported = universal_count = 0
    violations, equality_ids, shape_ids, mismatch_ids, cert_failures = [], [], [], [], []
    rows = []
    for instance in entry.instances(n, chunk):
        enumerated += 1
        if instance is None:
            continue
        reported += 1
        instance_id, count, universal, bound, shape, cert_issue = instance
        meets, equality = _judge(n, count, universal, bound)
        if universal:
            universal_count += 1
        elif compare_shape and equality != shape:
            mismatch_ids.append(instance_id)
        if not meets:
            violations.append(_report(kind, n, instance))
        if equality:
            equality_ids.append(instance_id)
        if shape:
            shape_ids.append(instance_id)
        if cert_issue is not None:
            cert_failures.append((instance_id, cert_issue))
        if render:
            rows.append((instance_id, count, bound, universal, meets, equality, shape))
    summary = SweepSummary(
        kind, n, enumerated, reported, universal_count, tuple(violations),
        tuple(equality_ids), tuple(shape_ids), tuple(mismatch_ids), tuple(cert_failures),
    )
    # The chunk's jsonl rows travel back as one string: rendering runs
    # in the workers, and the parent only writes.
    return summary, _render_rows(template, rows)


def run_sweep(
    kind: str, n: int, workers: int = 1, jsonl: TextIO | None = None
) -> SweepSummary:
    """Run one exhaustive sweep: the chunk summaries merged in chunk order.

    ``kind`` is a key of ``SWEEP_KINDS``.  With ``jsonl``, a text stream,
    every per-instance report is written to it as one JSON line, in
    canonical enumeration order.  Worker processes split the canonical
    chunk list and render their chunks' lines; the parent merges the
    summaries and writes the chunks in order, so the summary and the
    stream are identical for every worker count.
    """
    entry = sweep_kind(kind, n)
    render = jsonl is not None
    args = [(kind, n, chunk, render) for chunk in entry.chunks(n)]
    total = SweepSummary(kind, n)

    def consume(result) -> None:
        nonlocal total
        summary, text = result
        total = total.merge(summary)
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
    return total


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
