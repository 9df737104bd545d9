"""Exhaustive verification sweeps with deterministic, parallel-safe output.

Each sweep enumerates every instance of its kind on n labeled points,
counts distinct lines (never through the constructive process, which
is what the sweeps cross-validate), and folds the results into a
summary.  Every sweep counts many instances at once, one bit per
instance in plain ints.  Graph and metric sweeps count a chunk of edge
masks: ``graph_mask_planes`` from the edge planes,
``metric_mask_planes`` from the distance planes that breadth-first
search builds on them.  A poset sweep counts a batch of comparability
graphs, which induce the posets' lines, with ``graph_list_planes``.
``verify`` counts one graph from its adjacency rows with
``graph_line_count``, and one poset through the same counter on its
comparability graph.  Violations are data, not exceptions: a sweep
always completes and reports every failing instance.

Work is partitioned into canonically ordered chunks (edge-bitmask
ranges for graphs and metrics, backtracking-tree prefixes for posets),
so output is byte-identical across runs and worker counts.  A summary
counts instances and lists only the failing ones; every other
per-instance fact is in the jsonl rows.  Mask chunks and poset
batches share one plane reader, ``_read_planes``: counters are
popcounts of the kernel's planes, failing instances their set bits,
and each instance gets one code byte.  A mask chunk returns its
codes, and the parent picks each reported mask's row tail by its
code, so a worker sends back 1 byte per graph instead of about 190
bytes of rows; a poset chunk renders its own rows.  Every jsonl row
is ``json.dumps`` of its ``VerificationReport``: the head of its
(kind, n), the instance id and a tail rendered once per distinct tuple
of the fields after the id.  A
``VerificationReport`` is built only for ``verify`` and for the
violations a sweep records.  The parent turns each chunk's payload
into rows with its kind's ``rows`` and writes them in chunk order.

``graph_report``, ``poset_report`` and ``metric_report`` are what
``verify`` calls.  Each builds its default id only when given None,
and the graph and poset reports refuse an instance outside their
bound with DomainError.

``KINDS`` is the one place where a structure kind is described: how
its text becomes the structure (``parse``), the line system that
``lines`` prints and the report that ``verify`` checks, and, for a
sweepable kind, its size range, chunk list, chunk runner,
the parent-side renderer of a chunk's jsonl payload, whether its
equality cases are compared with an extremal shape and, for the mask
kinds, the kernel that counts a chunk.  ``lines`` and ``verify --kind``
offer every key, and ``sweep --kind`` the keys with a sweep part.
Every kind writes jsonl up to the one ``_JSONL_CAP``.
"""

from __future__ import annotations

import json
import os
import sys
from functools import lru_cache
from itertools import islice, product
from math import comb, log10
from operator import add
from typing import Callable, Iterator, NamedTuple, Sequence, TextIO

from .construct import build_certificate, certificate_issues
from .core import bit_planes, bits_of, distinct_count, hypergraph_lines, pair_list
from .enumeration import _first_comparable, _iter_states, poset_code
from .errors import CapError, DomainError, LinesysError, MetricError, SizeError
from .formats import parse_graph, parse_hypergraph, parse_metric, parse_poset
from .graphs import (
    Graph, graph_line_count, graph_lines, graph_list_planes, graph_mask_planes,
    is_extremal_graph,
)
from .metrics import metric_lines, metric_mask_planes, metric_pair_lines
from .posets import Poset, comparability_graph
# Not called here: the per-layer tracer of perfbench/ wraps these names.
from .core import line_mask_set  # noqa: F401
from .enumeration import poset_from_state  # noqa: F401
from .graphs import graph_betweenness  # noqa: F401
from .metrics import graph_shortest_path_metric, metric_betweenness  # noqa: F401
from .posets import is_extremal_poset, poset_betweenness  # noqa: F401

_CHUNK_MASKS = 1 << 12
# At most one worker per this many chunks: a pool's start-up (about
# 10-20 ms on 2 cores) outweighs sweeps of 27 chunks or fewer (graph or
# metric n <= 6, poset n <= 4), which a pool slows down; from poset
# n = 5's 81 chunks on, it pays for itself.
_CHUNKS_PER_WORKER = 16
# About this many pool tasks per worker: a task of one chunk costs the
# parent a message per chunk, which outweighs a graph n = 7 chunk's
# work, so a task takes several chunks once each worker has more.
_TASKS_PER_WORKER = 32


class VerificationReport(NamedTuple):
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
        """The report's jsonl row, without its newline: ``json.dumps``
        of its fields, whose declaration order is the jsonl key order.
        An int id too long to print (beyond Python's int-to-str digit
        limit, as the default id of a large graph or poset can be)
        raises DomainError."""
        try:
            return json.dumps(self._asdict())
        except ValueError:  # the int-to-str digit limit
            raise _id_too_long(self.structure_kind) from None


def _id_too_long(kind: str) -> DomainError:
    return DomainError(f"the instance id of this {kind} is too long to print as jsonl")


def _row_head(kind: str, n: int) -> str:
    """The text of every (kind, n) jsonl row before its instance id."""
    return json.dumps({"structure_kind": kind, "n": n})[:-1] + ', "instance_id": '


@lru_cache(maxsize=1024)
def _row_tail(*fields) -> str:
    """The text of a jsonl row after its instance id, newline included:
    ``json.dumps`` of the fields of ``VerificationReport`` after
    ``instance_id``, less its opening brace.  With the head and the id,
    each row is ``json_line`` of its report, so the flags must be bools
    (``json.dumps`` prints an int as a number).  Rows share a few
    tails, so each is rendered once (the cache is bounded for a
    long-lived process that prints many reports)."""
    keys = VerificationReport._fields[3:]
    return ", " + json.dumps(dict(zip(keys, fields)))[1:] + "\n"


class SweepSummary(NamedTuple):
    """What a sweep, or one chunk of it, found: counters, and the
    failing instances in canonical enumeration order.

    ``equality_cases`` and ``shape_matches`` count the reported
    instances with that flag set; their ids are in the jsonl rows.
    ``checked`` (reported instances with no universal line), ``issues``
    and ``ok`` are read off the fields.  ``mismatch_ids`` lists the
    instances whose equality case and extremal shape disagree, for kinds
    with an extremal shape.
    """

    kind: str
    n: int
    enumerated: int = 0
    reported: int = 0
    universal_count: int = 0
    equality_cases: int = 0
    shape_matches: int = 0
    violations: tuple[VerificationReport, ...] = ()
    mismatch_ids: tuple[int | str, ...] = ()
    certificate_failures: tuple[tuple[int | str, str], ...] = ()

    def merge(self, other: "SweepSummary") -> "SweepSummary":
        """This summary followed by ``other``: counters add up and the
        failure lists concatenate."""
        return SweepSummary(self.kind, self.n, *map(add, self[2:], other[2:]))

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


def _report(
    kind: str, n: int, instance_id: int | str, count: int, bound: int,
    universal: bool, shape: bool,
) -> VerificationReport:
    """The record of one instance from the fields its row prints."""
    return VerificationReport(
        kind, n, instance_id, count, bound, universal,
        *_judge(n, count, universal, bound), shape,
    )


def _poset_fields(p) -> tuple[tuple, str | None]:
    """The row fields of a poset of height at least 2 (line count,
    bound, universal, extremal shape match) and its certificate defect
    or None, one poset at a time: the oracle of the poset sweep's batch
    kernel, as ``graph_report`` is of the graph sweep's."""
    g = comparability_graph(p)
    count, universal = graph_line_count(g)
    defect = None if universal else _certificate_defect(p)
    return (count, p.bound, universal, is_extremal_graph(g)), defect


def _certificate_defect(p) -> str | None:
    """The first defect of the certificate of ``p``, built and replayed,
    or of its construction; None when it has none."""
    try:
        issues = certificate_issues(build_certificate(p), p)
    except LinesysError as exc:
        return f"certificate construction failed: {exc}"
    return issues[0] if issues else None


def _metric_fields(m) -> tuple:
    """The row fields of a metric space.  Every pair of a metric is
    linked, so its lines are its C(n, 2) pair lines, counted by sorting
    (``core.distinct_count``) as ``graph_line_count`` counts, with no
    run of ``line_system`` built; the largest is universal when it is
    the ground set."""
    if m.size < 2:
        raise SizeError("a line system needs at least two points")
    lines = sorted([mask for mask, _ in metric_pair_lines(m)])
    return distinct_count(lines), m.size, lines[-1] == (1 << m.size) - 1, False


def graph_report(g: Graph, instance_id: int | str | None = None) -> VerificationReport:
    """Verification record for one graph: at least n distinct lines
    unless some line is universal, equality only on the extremal shape.
    The default id is the edge mask, refused before it is built when it
    is too long to print (``_graph_id``).  DomainError below the
    smallest n of a graph sweep.

    Lines are counted by ``graph_line_count`` straight from the
    adjacency rows; no relation is built."""
    min_n = KINDS["graph"].sweep.min_n
    if g.size < min_n:
        raise DomainError(f"graph verification needs n >= {min_n}")
    if instance_id is None:
        instance_id = _graph_id(g)
    count, universal = graph_line_count(g)
    return _report(
        "graph", g.size, instance_id, count, g.size, universal, is_extremal_graph(g)
    )


def poset_report(p, instance_id: int | str | None = None):
    """Verification record and certificate defect for one poset, whose
    default id is ``poset_code``.

    DomainError for height-1 posets: the height-dependent bound is not
    defined there, and for a default id too long to print, before it is
    built (``_poset_id``).  Lines are counted and the shape is tested
    on the comparability graph, which induces the same lines; no
    relation is built.  The certificate is built and replayed only when no line is
    universal; its first defect (or construction error) is returned
    alongside the report.
    """
    if p.height < 2:
        raise DomainError(
            "poset verification needs height >= 2 (an antichain has no bound)"
        )
    if instance_id is None:
        instance_id = _poset_id(p)
    fields, defect = _poset_fields(p)
    return _report("poset", p.size, instance_id, *fields), defect


def _refuse_long_id(kind: str, log10_lower: float) -> None:
    """Refuse, with the jsonl error of ``json_line``, an id of at least
    10 ** log10_lower when that surely has more digits than the
    int-to-str limit allows.  An id near the limit is built, and
    ``json_line`` judges it."""
    limit = sys.get_int_max_str_digits()
    if limit and log10_lower >= limit:
        raise _id_too_long(kind)


def _graph_id(g: Graph) -> int:
    """``g.edge_mask()``, not built when it is surely too long to print:
    its top bit is the pair index i of the last edge (a, b), the one
    with the highest a and then the highest b, so the mask is at least
    2 ** i."""
    n = g.size
    for a in reversed(range(n)):
        b = g.adj[a].bit_length() - 1
        if b > a:
            _refuse_long_id("graph", (a * (2 * n - a - 1) // 2 + b - a - 1) * log10(2))
            break
    return g.edge_mask()


def _poset_id(p) -> int:
    """``poset_code(p)`` of a poset with a comparable pair, not built
    when it is surely too long to print.  Its L base-3 digits run from
    the first comparable pair (a, b) to the last pair: the n - b pairs
    (a, b..n-1) and every pair above a.  So the code is at least
    3 ** (L - 1)."""
    n = p.size
    a, b = _first_comparable(p)
    _refuse_long_id("poset", (n - b + comb(n - a - 1, 2) - 1) * log10(3))
    return poset_code(p)


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
    return _report("metric", m.size, instance_id, *_metric_fields(m))


def shape_mismatch(report: VerificationReport) -> bool:
    """True when the report's kind compares its equality cases with an
    extremal shape (its ``compare_shape``) and, with no universal line,
    the equality case and the shape match disagree: the per-report
    reading of a sweep's mismatch bits."""
    return (
        KINDS[report.structure_kind].sweep.compare_shape
        and not report.has_universal
        and report.is_equality_case != report.extremal_shape_match
    )


def _mask_chunks(n: int) -> list[tuple[int, int]]:
    total = 1 << len(pair_list(n))
    return [(lo, min(lo + _CHUNK_MASKS, total)) for lo in range(0, total, _CHUNK_MASKS)]


def _poset_chunks(n: int) -> list[tuple[int, ...]]:
    """Pair-state prefixes of depth n - 1: each fixes how point 0 relates
    to every other point, so no chunk holds more posets than there are
    on n - 1 points and no chunk's rows make one outsized string."""
    return list(product(range(3), repeat=n - 1))


def _fold_instances(
    kind: str, n: int, chunk: tuple, render: bool
) -> tuple[SweepSummary, str]:
    """The summary and (when ``render``) the jsonl rows of one chunk of
    posets, folded in batches of at most ``_CHUNK_MASKS`` enumerated
    posets, so that a chunk at n = 7 (up to 130,023 posets) stays
    bounded.  Each poset is built from the enumerator's closed rows
    with ``Poset._from_closed``, not validated again.  An antichain, of
    height 1, has no bound: it is enumerated but not reported.

    A batch counts the comparability graphs of its posets, which induce
    the same lines and have the same extremal shape, all at once with
    ``graph_list_planes``, and reads their planes with ``_read_planes``,
    each poset under its ``Poset.bound``.  Certificates are built and
    replayed only for the posets with no universal line.  Each row is
    the (kind, n) head, the poset code and the tail that its code byte
    and bound select.  ``_poset_fields`` is this fold's per-poset
    oracle.
    """
    head = _row_head(kind, n)
    summary = SweepSummary(kind, n)
    rows = []
    states = _iter_states(n, chunk)
    while batch := list(islice(states, _CHUNK_MASKS)):
        posets, codes, bounds, masks = [], [], [], []
        for code, succ, pred in batch:
            p = Poset._from_closed(succ, pred)
            if p.height >= 2:
                posets.append(p)
                codes.append(code)
                bounds.append(p.bound)
                masks.append(comparability_graph(p).edge_mask())
        planes = graph_list_planes(n, masks)
        full = (1 << len(posets)) - 1
        # A bound is below n ** 2, so its digits fit in this many planes.
        bound_planes = bit_planes(bounds, (n * n).bit_length())
        at_bound = {b: _compare_planes(bound_planes, b, full)[0] for b in set(bounds)}
        part, code_bytes = _read_planes(kind, n, codes, planes, at_bound, render)
        failures = tuple(
            (codes[i], defect)
            for i in bits_of(full ^ planes[1])
            if (defect := _certificate_defect(posets[i])) is not None
        )
        summary = summary.merge(
            part._replace(enumerated=len(batch), certificate_failures=failures)
        )
        if render:
            tails = {b: _code_tails(n, b) for b in at_bound}
            rows += [
                f"{head}{code}{tails[bound][byte]}"
                for code, bound, byte in zip(codes, bounds, code_bytes)
            ]
    return summary, "".join(rows)


def _compare_planes(planes: tuple[int, ...], value: int, full: int) -> tuple[int, int]:
    """(equal, above): the bits whose number, read in binary down the
    planes (least significant plane first), equals or exceeds ``value``.
    A metric on 2 points compares its 0 duplicates with C(2, 2) - 2."""
    if value < 0:
        return 0, full
    equal, above = full, 0
    for j in reversed(range(max(len(planes), value.bit_length()))):
        plane = planes[j] if j < len(planes) else 0
        if value >> j & 1:
            equal &= plane
        else:
            above |= equal & plane
            equal ^= equal & plane
    return equal, above


def _mask_codes(planes: list[int], width: int) -> bytes:
    """One byte per bit position below ``width``: bit j of byte i is bit
    i of planes[j], for at most 8 planes.  ``format`` spells a plane as
    one ASCII digit per bit, lowest bit first; read back as a
    little-endian int less the all-"0" digits, byte i holds bit i,
    which the shift moves to bit j."""
    zeros = int.from_bytes(b"0" * width, "little")
    codes = 0
    for j, plane in enumerate(planes):
        if plane:
            digits = format(plane, f"0{width}b")[::-1].encode()
            codes |= (int.from_bytes(digits, "little") - zeros) << j
    return codes.to_bytes(width, "little")


# The largest n whose jsonl stream a sweep of any kind writes: a graph
# stream at n = 8 would be about 52 GB.
_JSONL_CAP = 7
# The code byte of an instance: its duplicate count in the low 5 bits,
# then its universal, shape and unreported bits.  The jsonl cap keeps n <= 7,
# so at most C(7, 2) - 1 = 20 duplicates.
_DUPLICATE_BITS = 5
_UNREPORTED = 1 << _DUPLICATE_BITS + 2


def _read_planes(
    kind: str, n: int, ids: Sequence, planes: tuple, bounds: dict[int, int],
    render: bool,
) -> tuple[SweepSummary, bytes]:
    """The summary and (when ``render``) the code bytes of instances
    counted at once, from the planes (duplicate planes, universal,
    shape, reported) of their kernel, where bit i stands for the
    instance ids[i]: the counters are popcounts, the mismatch ids those
    of the set bits, and a ``VerificationReport`` is built only for a
    violation bit.  ``bounds`` maps each line bound to the plane of the
    instances it applies to.

    An instance has n lines exactly when C(n, 2) - n of its pairs repeat
    a lower pair's line, and fewer than b when more than C(n, 2) - b do.
    Byte i of the codes is the code of ids[i] (``_DUPLICATE_BITS``).
    """
    duplicates, universal, shape, reported = planes
    width = len(ids)
    full = (1 << width) - 1
    pairs = comb(n, 2)
    checked = reported ^ universal
    equality = _compare_planes(duplicates, pairs - n, full)[0] & checked
    below = sorted(
        (i, bound)
        for bound, at in bounds.items()
        for i in bits_of(_compare_planes(duplicates, pairs - bound, full)[1] & at & checked)
    )
    violations = tuple(
        _report(
            kind, n, ids[i],
            pairs - sum((plane >> i & 1) << j for j, plane in enumerate(duplicates)),
            bound, False, bool(shape >> i & 1),
        )
        for i, bound in below
    )
    mismatches = (equality ^ shape) & checked if KINDS[kind].sweep.compare_shape else 0
    summary = SweepSummary(
        kind, n, width, reported.bit_count(), universal.bit_count(),
        equality.bit_count(), shape.bit_count(), violations,
        tuple(ids[i] for i in bits_of(mismatches)),
    )
    if not render:
        return summary, b""
    # Zero planes pad the duplicate count to the low bits of the code.
    padding = [0] * (_DUPLICATE_BITS - len(duplicates))
    return summary, _mask_codes(
        [*duplicates, *padding, universal, shape, full ^ reported], width
    )


def _mask_chunk(
    kind: str, n: int, chunk: tuple[int, int], render: bool
) -> tuple[SweepSummary, bytes]:
    """The summary and (when ``render``) the code bytes of one chunk of
    edge masks [lo, hi): ``_read_planes`` of the planes of the kind's
    ``kernel``, ``graph_mask_planes`` or ``metric_mask_planes``, where
    bit i stands for the mask lo + i and every bound is n.  A
    disconnected graph has no metric: it is enumerated but not
    reported.  ``_mask_rows`` renders the jsonl rows from the codes in
    the parent: one byte per mask travels, not the rows.
    """
    lo, hi = chunk
    planes = KINDS[kind].sweep.kernel(n, lo, hi)
    return _read_planes(kind, n, range(lo, hi), planes, {n: (1 << hi - lo) - 1}, render)


@lru_cache(maxsize=None)
def _code_tails(n: int, bound: int) -> tuple[str, ...]:
    """The row tail that every reported code byte of an instance on n
    points with this bound selects, indexed by the byte: the duplicate
    count, then the universal and shape bits.  Codes no instance has
    get a tail too."""
    pairs = comb(n, 2)
    return tuple(
        _row_tail(count, bound, universal, *_judge(n, count, universal, bound), shape)
        for shape in (False, True)
        for universal in (False, True)
        for count in range(pairs, pairs - (1 << _DUPLICATE_BITS), -1)
    )


def _mask_rows(kind: str, n: int, chunk: tuple[int, int], codes: bytes) -> str:
    """The jsonl rows of a mask chunk [lo, hi) from its code bytes: each
    reported mask's row is the (kind, n) head, the mask and the tail its
    code selects."""
    head = _row_head(kind, n)
    tails = _code_tails(n, n)
    rows = zip(range(*chunk), codes)
    # The unreported bit is a byte's top bit, so a chunk with no code to
    # drop, as every graph chunk, is ASCII and pays nothing per row.
    if not codes.isascii():
        rows = [(mask, code) for mask, code in rows if code < _UNREPORTED]
    return "".join([f"{head}{mask}{tails[code]}" for mask, code in rows])


def _text_rows(kind: str, n: int, chunk: tuple, text: str) -> str:
    """The jsonl rows of a chunk whose runner already rendered them."""
    return text


class _Sweep(NamedTuple):
    min_n: int
    cap: int  # the largest n a text sweep runs (jsonl stops at _JSONL_CAP)
    chunks: Callable[[int], list]  # n -> canonically ordered work units
    # (kind, n, unit, render) -> the unit's summary and (when render) its
    # jsonl payload: code bytes for masks, rendered rows for posets
    run_chunk: Callable[[str, int, tuple, bool], tuple[SweepSummary, bytes | str]]
    # (kind, n, unit, payload) -> the unit's jsonl rows, in the parent
    rows: Callable[[str, int, tuple, bytes | str], str]
    compare_shape: bool  # equality cases are checked against the extremal shape
    # (n, lo, hi) -> (duplicate planes, universal, shape, reported) of the
    # edge masks lo..hi-1, for the kinds that ``_mask_chunk`` runs
    kernel: Callable[[int, int, int], tuple] | None = None


class _Kind(NamedTuple):
    parse: Callable[[str], object]  # text -> structure
    lines: Callable[[object], Iterator]  # structure -> runs of line_system
    # (structure, instance id) -> (report, certificate defect or None).
    # Only a jsonl row prints the id: it passes None, the report's
    # default id, and text passes "", so no kind builds an id it will
    # not print (a poset's is a base-3 number of up to C(n, 2) digits).
    # None when no line-count theorem covers the kind.
    report: Callable[[object, int | str | None], tuple] | None
    sweep: _Sweep | None  # None for a kind with no sweep


# The one place a structure kind is described.  Entries look the module
# functions they call (parsers, line builders, reports, kernels,
# certificate_issues, ...) up when called, so patching or tracing one of
# them reaches every subcommand and sweep that calls it.  Every line
# builder reads the kind's own rows (a poset's through its comparability
# graph, which induces the same lines) into ``core.line_system``.  Graph
# and metric chunks are counted all at once by their kernel's bit planes
# and ship one code byte per mask, which the parent renders; a poset
# chunk counts its comparability graphs in batches with the graph
# kernel's list-of-masks entry and ships its rows.  One jsonl cap,
# ``_JSONL_CAP``, serves every kind and keeps a code in one byte.
KINDS = {
    "graph": _Kind(
        lambda text: parse_graph(text), lambda g: graph_lines(g),
        lambda g, instance_id: (graph_report(g, instance_id), None),
        _Sweep(
            3, 8, _mask_chunks, _mask_chunk, _mask_rows, True,
            lambda n, lo, hi: graph_mask_planes(n, lo, hi),
        ),
    ),
    "poset": _Kind(
        lambda text: parse_poset(text), lambda p: graph_lines(comparability_graph(p)),
        lambda p, instance_id: poset_report(p, instance_id),
        _Sweep(2, 7, _poset_chunks, _fold_instances, _text_rows, True),
    ),
    # Metric n = 7 takes about 1 s on one core; n = 8, with 128 times as
    # many masks, about 3 minutes.
    "metric": _Kind(
        lambda text: parse_metric(text), lambda m: metric_lines(m),
        lambda m, instance_id: (metric_report(m, instance_id), None),
        _Sweep(
            2, 7, _mask_chunks, _mask_chunk, _mask_rows, False,
            lambda n, lo, hi: metric_mask_planes(n, lo, hi),
        ),
    ),
    "hypergraph": _Kind(
        lambda text: parse_hypergraph(text), lambda h: hypergraph_lines(*h), None, None
    ),
}


def sweep_kind(kind: str, n: int, jsonl: bool = False) -> _Sweep:
    """The sweep part of ``kind``'s ``KINDS`` entry, once n is in its
    range (and, for a sweep that writes jsonl, at most ``_JSONL_CAP``)."""
    sweep = getattr(KINDS.get(kind), "sweep", None)
    if sweep is None:
        raise DomainError(f"unknown sweep kind {kind!r}")
    if n > sweep.cap:
        raise CapError(f"{kind} sweeps support n <= {sweep.cap}, got {n}")
    if n < sweep.min_n:
        raise DomainError(f"{kind} sweeps need n >= {sweep.min_n}, got {n}")
    if jsonl and n > _JSONL_CAP:
        raise CapError(f"{kind} sweeps write jsonl for n <= {_JSONL_CAP}, got {n}")
    return sweep


def _run_chunk(args) -> tuple[SweepSummary, bytes | str]:
    """The summary and (when ``render``) the jsonl payload of one chunk,
    which the kind's ``rows`` turns into text in the parent."""
    kind, n, chunk, render = args
    return KINDS[kind].sweep.run_chunk(kind, n, chunk, render)


def run_sweep(
    kind: str, n: int, workers: int = 1, jsonl: TextIO | None = None
) -> SweepSummary:
    """Run one exhaustive sweep: the chunk summaries merged in chunk order.

    ``kind`` is a key of ``KINDS`` with a sweep part; ``workers`` below
    1 raises DomainError.  With ``jsonl``, a text stream, every
    per-instance report is written to it as one JSON line, in canonical
    enumeration order.  Worker processes split the canonical chunk list
    and run its chunks; the parent merges the summaries in chunk order
    and renders each chunk's payload with the kind's ``rows`` (the same
    runner and renderer serve a serial sweep), so the summary and the
    stream are identical for every worker count.  The pool gets at most one worker
    per ``_CHUNKS_PER_WORKER`` chunks and per CPU; when that leaves one
    worker, the sweep runs in this process and starts no pool.  Each
    pool task takes about 1/``_TASKS_PER_WORKER`` of a worker's chunks,
    and one chunk when a worker has fewer than twice that many.
    """
    if workers < 1:
        raise DomainError(f"a sweep needs at least 1 worker, got {workers}")
    render = jsonl is not None
    entry = sweep_kind(kind, n, render)
    chunks = entry.chunks(n)
    args = [(kind, n, chunk, render) for chunk in chunks]

    def consume(results) -> SweepSummary:
        total = SweepSummary(kind, n)
        for chunk, (summary, payload) in zip(chunks, results):
            total = total.merge(summary)
            if render:
                text = entry.rows(kind, n, chunk, payload)
                if text:
                    jsonl.write(text)
        return total

    # No flag value may start more processes than there are CPUs, or a
    # pool whose start-up costs more than the chunks it spreads.
    workers = min(workers, len(args) // _CHUNKS_PER_WORKER or 1, os.cpu_count() or 1)
    if workers <= 1:
        return consume(map(_run_chunk, args))
    import multiprocessing  # only a pool needs it: kept off the start-up path

    ctx = multiprocessing.get_context("fork")
    chunksize = len(args) // (workers * _TASKS_PER_WORKER) or 1
    with ctx.Pool(workers) as pool:
        return consume(pool.imap(_run_chunk, args, chunksize))
