import functools
import hashlib
import io
import json
import multiprocessing
from itertools import product
from math import comb

import pytest
from hypothesis import given
from hypothesis import strategies as st
from reference import (
    BetweennessRelation,
    enumerate_posets,
    exhaustive_min_pair_sum,
    graph_from_edges,
)
from test_golden import SWEEP_STREAMS
from test_metrics import oracle_line_count

import linesys.construct as construct
import linesys.posets as posets
import linesys.sweeps as sweeps
from linesys import (
    CapError,
    DisconnectedError,
    DomainError,
    Graph,
    MetricError,
    MetricSpace,
    Poset,
    dbe_bound,
    graph_report,
    metric_report,
    pair_list,
    poset_report,
    run_sweep,
)
from linesys.sweeps import VerificationReport, shape_mismatch


def jsonl_of(kind, n, workers):
    stream = io.StringIO()
    summary = run_sweep(kind, n, workers=workers, jsonl=stream)
    return stream.getvalue(), summary


def ids_of(kind, n):
    rows = jsonl_of(kind, n, workers=1)[0].splitlines()
    return [json.loads(row)["instance_id"] for row in rows]


class FlaggedRows(io.TextIOBase):
    """A jsonl stream that keeps, parsed, only the rows with one of the
    given flags true, so the ids of a large sweep's rare instances are
    read without holding its stream.  ``run_sweep`` writes whole rows."""

    def __init__(self, *flags):
        self.marks = [f'"{flag}": true' for flag in flags]
        self.rows = []

    def write(self, text):
        starts = set()
        for mark in self.marks:
            at = text.find(mark)
            while at >= 0:
                starts.add(text.rfind("\n", 0, at) + 1)
                at = text.find(mark, at + 1)
        self.rows += [json.loads(text[i : text.index("\n", i)]) for i in sorted(starts)]
        return len(text)

    def ids(self, flag):
        return {row["instance_id"] for row in self.rows if row[flag]}


def record_pools(monkeypatch):
    """Let a sweep start a real fork pool for as few as 2 chunks, on a
    box taken to have 2 CPUs, and return the list that records the size
    of every pool it starts."""
    sizes = []
    real = multiprocessing.get_context

    class Spy:
        def __init__(self, method):
            self.context = real(method)

        def Pool(self, size):
            sizes.append(size)
            return self.context.Pool(size)

    monkeypatch.setattr(sweeps, "_CHUNKS_PER_WORKER", 1)
    monkeypatch.setattr(sweeps.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(multiprocessing, "get_context", Spy)
    return sizes


def flagged_sweep(kind, n, workers=1):
    """The summary of a jsonl sweep and its equality and shape rows."""
    rows = FlaggedRows("is_equality_case", "extremal_shape_match")
    return run_sweep(kind, n, workers=workers, jsonl=rows), rows


# --- per-instance reports ---------------------------------------------------

def test_graph_report_fields_for_one_triangle_graph():
    r = graph_report(graph_from_edges(4, [(0, 1), (0, 2), (1, 2)]))
    assert r.structure_kind == "graph"
    assert (r.n, r.line_count, r.bound) == (4, 4, 4)
    assert not r.has_universal
    assert r.meets_bound and r.is_equality_case and r.extremal_shape_match


def test_graph_report_universal_graph_meets_trivially():
    r = graph_report(graph_from_edges(4, list(pair_list(4))))
    assert r.has_universal and r.meets_bound and not r.is_equality_case


def test_poset_report_skips_antichains():
    # The sweep counts an antichain as enumerated, not reported; a
    # report of one is refused, as verify refuses it.
    with pytest.raises(DomainError, match=r"height >= 2 \(an antichain has no bound\)"):
        poset_report(Poset.from_covers(3, []))


def test_poset_report_equality_and_certificate():
    p = Poset.from_covers(4, [(0, 1), (1, 2), (3, 2)])
    report, cert_issue = poset_report(p)
    assert report.bound == dbe_bound(4, 3) == 4
    assert report.line_count == 4
    assert report.is_equality_case and report.extremal_shape_match
    assert cert_issue is None


def test_metric_report_has_no_shape():
    m = MetricSpace([[0, 1, 2], [1, 0, 1], [2, 1, 0]])
    r = metric_report(m, "inline")
    assert r.has_universal and not r.extremal_shape_match


def test_metric_report_rejects_a_default_id_too_long_to_print():
    # 10**5000 has more digits than Python prints from an int; the
    # count itself does not need them.
    m = MetricSpace([[0, 10**5000], [10**5000, 0]])
    with pytest.raises(MetricError, match="instance id"):
        metric_report(m)
    assert metric_report(m, "huge").line_count == 1


def test_report_json_key_order():
    r = graph_report(graph_from_edges(4, [(0, 1), (0, 2), (1, 2)]))
    line = r.json_line()
    keys = [
        "structure_kind", "n", "instance_id", "line_count", "bound",
        "has_universal", "meets_bound", "is_equality_case",
        "extremal_shape_match",
    ]
    positions = [line.index(f'"{k}"') for k in keys]
    assert positions == sorted(positions)


ID_TEXT = st.text(alphabet=st.sampled_from('ab"\\/é€😀\n\x00 %'), max_size=12)


@given(
    kind=st.sampled_from(["graph", "poset", "metric"]),
    n=st.integers(1, 10**6),
    instance_id=st.one_of(st.integers(0, 2**28), ID_TEXT),
    count=st.integers(0, 10**6),
    bound=st.integers(0, 10**6),
    flags=st.tuples(st.booleans(), st.booleans(), st.booleans(), st.booleans()),
)
def test_template_rows_are_json_dumps_of_the_report(
    kind, n, instance_id, count, bound, flags
):
    # The sweeps' rows: the (kind, n) head, the id and the cached tail.
    report = VerificationReport(kind, n, instance_id, count, bound, *flags)
    line = (
        sweeps._row_head(kind, n) + json.dumps(instance_id)
        + sweeps._row_tail(*report[3:])[:-1]
    )
    assert line == json.dumps(report._asdict()) == report.json_line()
    assert json.loads(line) == report._asdict()


def reference_fold(reports):
    """The summary fields a sweep over these reports must give, folded
    from the reports themselves."""
    return {
        "reported": len(reports),
        "checked": sum(not r.has_universal for r in reports),
        "universal_count": sum(r.has_universal for r in reports),
        "violations": tuple(r for r in reports if not r.meets_bound),
        "equality_cases": sum(r.is_equality_case for r in reports),
        "shape_matches": sum(r.extremal_shape_match for r in reports),
    }


def metric_report_of(n, mask):
    """The report of the shortest-path metric of one graph, its lines
    counted by the generic relation evaluator; None when the graph is
    disconnected."""
    try:
        count, universal = oracle_line_count(Graph.from_mask(n, mask))
    except DisconnectedError:
        return None
    meets, equality = count >= n or universal, count == n and not universal
    return VerificationReport("metric", n, mask, count, n, universal, meets, equality, False)


@pytest.mark.parametrize("chunk_masks", [1 << 12, 96])
@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_chunk_kernel_matches_the_graph_reports(monkeypatch, n, chunk_masks):
    # 96-mask chunks start and end off the period of pair bits 5 and up,
    # so their edge planes are shifted patterns or switch mid-chunk.
    monkeypatch.setattr(sweeps, "_CHUNK_MASKS", chunk_masks)
    masks = range(1 << comb(n, 2))
    reports = [graph_report(Graph.from_mask(n, mask), mask) for mask in masks]
    text, summary = jsonl_of("graph", n, workers=1)
    assert text == "".join(r.json_line() + "\n" for r in reports)
    assert summary.enumerated == len(masks)
    assert summary.ok
    for name, value in reference_fold(reports).items():
        assert getattr(summary, name) == value, name


@st.composite
def graph_chunks(draw):
    n = draw(st.integers(3, 7))
    total = 1 << comb(n, 2)
    lo = draw(st.integers(0, total - 1))
    hi = draw(st.integers(lo + 1, min(total, lo + 300)))
    return n, lo, hi


@given(graph_chunks())
def test_graph_rows_render_the_reports_from_the_chunk_codes(chunk):
    # The workers run the chunk and ship its codes; the parent renders
    # them with the kind's ``rows``.
    n, lo, hi = chunk
    entry = sweeps.KINDS["graph"].sweep
    _, codes = entry.run_chunk("graph", n, (lo, hi), True)
    text = entry.rows("graph", n, (lo, hi), codes)
    assert text.splitlines(keepends=True) == [
        graph_report(Graph.from_mask(n, mask)).json_line() + "\n"
        for mask in range(lo, hi)
    ]


@pytest.mark.parametrize("n, lo, hi", [(3, 0, 8), (5, 37, 133), (7, 2**21 - 4096, 2**21)])
def test_a_rendered_graph_chunk_ships_one_byte_per_mask(n, lo, hi):
    # Graph and metric chunks alike ship a byte for every enumerated
    # mask; a disconnected graph's byte sets the unreported bit.
    for kind in ("graph", "metric"):
        summary, codes = sweeps._mask_chunk(kind, n, (lo, hi), True)
        assert isinstance(codes, bytes) and len(codes) == summary.enumerated == hi - lo
        unreported = sum(code >= sweeps._UNREPORTED for code in codes)
        assert unreported == summary.enumerated - summary.reported
        assert (unreported > 0) == (kind == "metric")
        assert sweeps._mask_chunk(kind, n, (lo, hi), False) == (summary, b"")


def test_the_graph_jsonl_cap_keeps_the_duplicate_count_in_its_code_bits():
    # Every kind that ships code bytes, graph and metric, fits its code
    # layout in the 8 planes _mask_codes allows: 5 duplicate bits (an
    # instance on n points repeats at most C(n, 2) - 1 pair lines), then
    # the universal, shape and unreported bits.  The unreported bit is
    # the top one, which _mask_rows finds with bytes.isascii.
    coded = [
        kind
        for kind, entry in sweeps.KINDS.items()
        if entry.sweep and entry.sweep.rows is sweeps._mask_rows
    ]
    assert coded == ["graph", "metric"]
    assert sweeps._DUPLICATE_BITS == 5
    assert sweeps._UNREPORTED == 1 << sweeps._DUPLICATE_BITS + 2 == 1 << 7
    assert comb(sweeps._JSONL_CAP, 2) - 1 < 2**sweeps._DUPLICATE_BITS


@st.composite
def mask_planes(draw):
    width = draw(st.integers(1, 4200))
    plane = st.one_of(st.just(0), st.integers(0, (1 << width) - 1))
    return width, draw(st.lists(plane, max_size=8))


@given(mask_planes())
def test_mask_codes_put_bit_i_of_plane_j_at_bit_j_of_byte_i(case):
    width, planes = case
    assert sweeps._mask_codes(planes, width) == bytes(
        sum((plane >> i & 1) << j for j, plane in enumerate(planes))
        for i in range(width)
    )


# --- sweeps -----------------------------------------------------------------

def test_graph_sweep_n4_equality_cases_are_the_one_triangle_graphs():
    summary, rows = flagged_sweep("graph", 4)
    assert summary.enumerated == 64
    assert summary.ok
    assert not summary.violations
    one_triangle = {
        mask
        for mask in range(64)
        if graph_report(Graph.from_mask(4, mask)).line_count == 4
        and not graph_report(Graph.from_mask(4, mask)).has_universal
    }
    assert rows.ids("is_equality_case") == one_triangle
    assert rows.ids("extremal_shape_match") == one_triangle
    assert summary.equality_cases == summary.shape_matches == len(one_triangle) == 16


def test_graph_sweep_n3_equality_includes_the_empty_graph():
    summary, rows = flagged_sweep("graph", 3)
    assert summary.ok
    assert 0 in rows.ids("is_equality_case")
    assert 0 in rows.ids("extremal_shape_match")
    # all 7 non-complete graphs have exactly 3 lines
    assert rows.ids("is_equality_case") == set(range(7))
    assert summary.equality_cases == 7


def test_graph_sweep_n5_zero_violations():
    summary = run_sweep("graph", 5)
    assert summary.enumerated == 1024
    assert summary.ok and not summary.violations


def test_poset_sweep_n4_zero_violations():
    summary = run_sweep("poset", 4)
    assert summary.enumerated == 219
    assert summary.reported == 218  # the antichain has height 1
    assert summary.ok
    assert not summary.certificate_failures


@pytest.mark.parametrize("n, reported", [(2, 2), (3, 18), (4, 218), (5, 4230)])
def test_poset_rows_are_the_reports_in_enumeration_order(n, reported):
    # As graph and metric rows are checked against their reports: each
    # poset is rebuilt by the validating constructor and its report
    # gives the id (poset_code) and the fields.
    rows = [
        poset_report(p)[0].json_line() + "\n"
        for p in enumerate_posets(n) if p.height >= 2
    ]
    assert len(rows) == reported
    assert jsonl_of("poset", n, workers=1)[0].splitlines(keepends=True) == rows


def test_poset_sweep_builds_no_betweenness_relation(monkeypatch):
    # Counting, the shape test and certificate build and replay all read
    # order or adjacency rows; a relation on the hot path fails here.
    def forbidden(*args, **kwargs):
        raise AssertionError("a poset sweep built a BetweennessRelation")

    monkeypatch.setattr(BetweennessRelation, "__init__", forbidden)
    data, summary = jsonl_of("poset", 5, workers=1)
    assert summary.ok and summary.checked == 3450
    assert not summary.certificate_failures
    size, digest = SWEEP_STREAMS["poset", 5]
    assert (len(data), hashlib.sha256(data.encode()).hexdigest()) == (size, digest)


def test_metric_sweep_builds_no_metric_space_or_relation(monkeypatch):
    # The metric sweep counts from distance planes; a validated metric
    # space or a relation on the hot path fails here.
    def forbidden(*args, **kwargs):
        raise AssertionError("a metric sweep built a metric space or a relation")

    monkeypatch.setattr(BetweennessRelation, "__init__", forbidden)
    monkeypatch.setattr(MetricSpace, "__init__", forbidden)
    data, summary = jsonl_of("metric", 5, workers=1)
    assert summary.ok and summary.reported == 728
    size, digest = SWEEP_STREAMS["metric", 5]
    assert (len(data), hashlib.sha256(data.encode()).hexdigest()) == (size, digest)


def test_poset_sweep_n2_is_vacuous():
    summary = run_sweep("poset", 2)
    # chains have a universal line; the antichain has height 1
    assert summary.checked == 0
    assert summary.ok


def test_metric_sweep_n4():
    summary = run_sweep("metric", 4)
    assert summary.enumerated == 64
    assert summary.reported == 38  # connected graphs on 4 labeled vertices
    assert summary.ok


def test_metric_sweep_reports_what_its_counter_returns(monkeypatch):
    # The sweep looks its kernel up by module name at call time, so a
    # planted undercount (every pair but one repeats a line, none is
    # universal) reaches every connected graph as a violation.
    real = sweeps.metric_mask_planes

    def undercounted(n, lo, hi):
        _, _, shape, connected = real(n, lo, hi)
        repeats = comb(n, 2) - 1
        planes = tuple(connected * (repeats >> j & 1) for j in range(repeats.bit_length()))
        return planes, 0, shape, connected

    monkeypatch.setattr(sweeps, "metric_mask_planes", undercounted)
    summary = run_sweep("metric", 4, workers=1)
    assert (summary.enumerated, summary.reported, summary.checked) == (64, 38, 38)
    connected = [mask for mask in range(64) if metric_report_of(4, mask) is not None]
    assert not summary.ok
    assert summary.violations == tuple(
        VerificationReport("metric", 4, mask, 1, 4, False, False, False, False)
        for mask in connected
    )


def test_sweep_domain_checks(monkeypatch):
    monkeypatch.setattr(sweeps, "_run_chunk", None)  # no chunk may run
    for workers in (0, -3):
        with pytest.raises(DomainError, match=f"at least 1 worker, got {workers}"):
            run_sweep("graph", 4, workers=workers)
    with pytest.raises(CapError):
        run_sweep("graph", 9)
    with pytest.raises(DomainError):
        run_sweep("graph", 2)
    with pytest.raises(CapError):
        run_sweep("poset", 8)
    with pytest.raises(CapError):
        run_sweep("metric", 8)
    with pytest.raises(DomainError):
        run_sweep("unknown", 4)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("kind", ["graph", "poset", "metric"])
def test_summary_counts_match_the_jsonl_rows(monkeypatch, kind, workers):
    pools = record_pools(monkeypatch)
    monkeypatch.setattr(sweeps, "_CHUNK_MASKS", 64)  # 16 graph and metric chunks
    text, summary = jsonl_of(kind, 5, workers)
    assert pools == ([2] if workers > 1 else [])
    rows = [json.loads(row) for row in text.splitlines()]

    def flagged(flag):
        return sum(row[flag] for row in rows)

    assert summary.reported == len(rows)
    assert summary.universal_count == flagged("has_universal")
    assert summary.checked == len(rows) - flagged("has_universal")
    assert summary.equality_cases == flagged("is_equality_case")
    assert summary.shape_matches == flagged("extremal_shape_match")
    assert len(summary.violations) == len(rows) - flagged("meets_bound") == 0
    # No graph metric on 5 points has exactly 5 lines and no universal one.
    assert (summary.equality_cases > 0) == (kind != "metric")


def test_sweep_reports_stream_in_canonical_order():
    assert ids_of("graph", 4) == list(range(64))
    poset_ids = ids_of("poset", 3)
    assert poset_ids == sorted(poset_ids)


def test_jsonl_output_byte_identical_across_worker_counts(monkeypatch):
    pools = record_pools(monkeypatch)
    monkeypatch.setattr(sweeps, "_CHUNK_MASKS", 16)  # 4 graph and metric chunks
    for kind, n in (("graph", 4), ("poset", 4), ("metric", 4)):
        solo, s1 = jsonl_of(kind, n, workers=1)
        assert pools == []
        multi, s3 = jsonl_of(kind, n, workers=3)
        assert pools.pop() == 2
        assert solo == multi, kind
        assert s1 == s3


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize(
    "kind, chunk_masks",
    [("graph", 64), ("graph", 96), ("metric", 64), ("metric", 96)],
    ids=["graph", "graph-unaligned", "metric", "metric-unaligned"],
)
def test_many_chunks_are_written_in_canonical_order(monkeypatch, kind, chunk_masks, workers):
    # 96-mask chunks start and end off the period of pair bits 5 and up.
    pools = record_pools(monkeypatch)
    monkeypatch.setattr(sweeps, "_CHUNK_MASKS", chunk_masks)
    assert len(sweeps.KINDS[kind].sweep.chunks(5)) == -(-1024 // chunk_masks)
    data = jsonl_of(kind, 5, workers)[0].encode()
    assert pools == ([2] if workers > 1 else [])
    assert (len(data), hashlib.sha256(data).hexdigest()) == SWEEP_STREAMS[kind, 5]


@pytest.mark.parametrize(
    "n, lo, hi",
    [
        (3, 0, 8), (5, 37, 133), (6, 4000, 4096),
        (7, 1_000_003, 1_001_000), (7, 2**21 - 99, 2**21),
    ],
)
def test_metric_chunks_decode_every_mask_of_the_chunk(n, lo, hi):
    # The workers run the chunk and ship its codes; the parent renders a
    # row for every connected graph of the chunk, and none for the rest.
    entry = sweeps.KINDS["metric"].sweep
    summary, codes = entry.run_chunk("metric", n, (lo, hi), True)
    reports = [metric_report_of(n, mask) for mask in range(lo, hi)]
    reports = [r for r in reports if r is not None]
    assert entry.rows("metric", n, (lo, hi), codes).splitlines(keepends=True) == [
        r.json_line() + "\n" for r in reports
    ]
    for name, value in reference_fold(reports).items():
        assert getattr(summary, name) == value, name


def test_each_reported_poset_evaluates_its_bound_once(monkeypatch):
    # The report and the certificate replay share Poset.bound.
    calls = []
    real = posets.dbe_bound
    monkeypatch.setattr(posets, "dbe_bound", lambda n, h: calls.append(h) or real(n, h))
    summary = run_sweep("poset", 5)
    assert len(calls) == summary.reported == 4230
    assert summary.ok and summary.checked == 3450


def test_each_certificate_is_counted_once(monkeypatch):
    # The build counts nothing; the replay counts the distinct total of
    # every certified poset, one with no universal line, once.
    calls = []
    real = construct._distinct_lines

    def counted(layers, steps):
        calls.append(len(steps))
        return real(layers, steps)

    monkeypatch.setattr(construct, "_distinct_lines", counted)
    summary = run_sweep("poset", 4)
    assert summary.ok and len(calls) == summary.checked == 158
    calls.clear()
    assert poset_report(Poset.from_covers(4, [(0, 1), (1, 2), (3, 2)]))[1] is None
    assert len(calls) == 1


def test_poset_chunks_fix_point_zero_against_every_other_point():
    # The jsonl streams of test_golden pin the bytes this layout writes
    # at n = 4 and 5 with one and two workers.
    chunks = sweeps.KINDS["poset"].sweep.chunks
    for n in range(2, 8):
        assert chunks(n) == list(product(range(3), repeat=n - 1))
    assert (len(chunks(5)), len(chunks(7))) == (81, 729)


# Planted faults.  A graph sweep counts through ``graph_mask_planes``
# and ``verify`` through ``graph_line_count`` and ``is_extremal_graph``,
# so each fault has one plant per seam.

def undercount_the_lines(monkeypatch):
    """Every swept graph repeats one more edge line, so has one line fewer."""
    real = sweeps.graph_mask_planes

    def undercounted(n, lo, hi):
        duplicates, universal, shape, reported = real(n, lo, hi)
        planes, carry = [], (1 << hi - lo) - 1
        for plane in duplicates:
            planes.append(plane ^ carry)
            carry &= plane
        return (*planes, carry), universal, shape, reported

    monkeypatch.setattr(sweeps, "graph_mask_planes", undercounted)


def flip_the_shape(monkeypatch):
    """Every swept graph has the extremal shape exactly when it has not."""
    real = sweeps.graph_mask_planes

    def flipped(n, lo, hi):
        duplicates, universal, shape, reported = real(n, lo, hi)
        return duplicates, universal, shape ^ (1 << hi - lo) - 1, reported

    monkeypatch.setattr(sweeps, "graph_mask_planes", flipped)


def undercount_the_verified_lines(monkeypatch):
    real = sweeps.graph_line_count

    def undercounted(g):
        count, universal = real(g)
        return count - 1, universal

    monkeypatch.setattr(sweeps, "graph_line_count", undercounted)


def flip_the_verified_shape(monkeypatch):
    real = sweeps.is_extremal_graph
    monkeypatch.setattr(sweeps, "is_extremal_graph", lambda g: not real(g))


def test_violations_are_reported_as_data_not_exceptions(monkeypatch):
    # Undercount every graph by one line, so every graph with no
    # universal line falls below its bound; the sweep must complete and
    # carry the failures in the summary.
    undercount_the_lines(monkeypatch)
    summary = run_sweep("graph", 3, workers=1)
    assert not summary.ok
    assert summary.violations
    assert any("below their line bound" in issue for issue in summary.issues)
    # The violation records are the reports verify gives the same graphs
    # under the same fault.
    undercount_the_verified_lines(monkeypatch)
    reports = [graph_report(Graph.from_mask(3, mask), mask) for mask in range(8)]
    assert summary.violations == tuple(r for r in reports if not r.meets_bound)
    for name, value in reference_fold(reports).items():
        assert getattr(summary, name) == value, name


@given(st.lists(st.integers(0, 40), min_size=1, max_size=70), st.integers(-3, 70))
def test_compare_planes_reads_each_bit_position_as_a_number(values, value):
    planes = tuple(
        sum((v >> j & 1) << i for i, v in enumerate(values))
        for j in range(max(values).bit_length())
    )
    equal, above = sweeps._compare_planes(planes, value, (1 << len(values)) - 1)
    assert [equal >> i & 1 for i in range(len(values) + 1)] == [
        *(v == value for v in values), False
    ]
    assert [above >> i & 1 for i in range(len(values) + 1)] == [
        *(v > value for v in values), False
    ]


def test_shape_disagreements_are_reported_as_data(monkeypatch):
    flip_the_shape(monkeypatch)
    summary = run_sweep("graph", 4, workers=1)
    assert not summary.ok and not summary.violations
    assert summary.issues == (
        f"{len(summary.mismatch_ids)} instances where equality cases and the "
        f"extremal shape disagree",
    )
    flip_the_verified_shape(monkeypatch)
    reports = [graph_report(Graph.from_mask(4, mask), mask) for mask in range(64)]
    assert summary.mismatch_ids == tuple(
        r.instance_id for r in reports if shape_mismatch(r)
    )
    assert len(summary.mismatch_ids) == summary.checked


@pytest.mark.parametrize("kind, flip", [("graph", True), ("metric", False)])
def test_chunking_does_not_change_the_summary(monkeypatch, kind, flip):
    if flip:
        flip_the_shape(monkeypatch)
    whole = run_sweep(kind, 5, workers=1)
    monkeypatch.setattr(sweeps, "_CHUNK_MASKS", 64)
    assert len(sweeps.KINDS[kind].sweep.chunks(5)) == 16
    chunked = run_sweep(kind, 5, workers=1)
    assert chunked == whole
    assert (chunked.checked, chunked.issues) == (whole.checked, whole.issues)
    assert bool(whole.mismatch_ids) == flip


@pytest.mark.parametrize(
    "plant",
    [undercount_the_verified_lines, flip_the_verified_shape],
    ids=["undercount_the_lines", "flip_the_shape"],
)
def test_poset_failures_are_the_reports_under_the_same_plant(monkeypatch, plant):
    # The poset fold counts and tests the shape through the seams of
    # verify, so a planted fault gives the failures, in id order, that
    # poset_report and shape_mismatch give each poset.
    plant(monkeypatch)
    summary = run_sweep("poset", 4, workers=1)
    reports = [poset_report(p)[0] for p in enumerate_posets(4) if p.height >= 2]
    assert summary.violations == tuple(r for r in reports if not r.meets_bound)
    assert summary.mismatch_ids == tuple(
        r.instance_id for r in reports if shape_mismatch(r)
    )
    assert summary.mismatch_ids and not summary.certificate_failures
    assert bool(summary.violations) == (plant is undercount_the_verified_lines)
    for name, value in reference_fold(reports).items():
        assert getattr(summary, name) == value, name


def test_certificate_failures_are_reported_as_data(monkeypatch):
    monkeypatch.setattr(
        sweeps, "certificate_issues", lambda cert, p: ["planted defect"]
    )
    summary = run_sweep("poset", 3, workers=1)
    assert summary.certificate_failures
    assert any("certificates failed" in issue for issue in summary.issues)


# --- pair-sum reference search ----------------------------------------------

def test_exhaustive_min_pair_sum_agrees_with_plain_composition_search():
    for n in range(1, 8):
        for parts in range(1, n + 1):
            plain = min(
                sum(comb(c, 2) for c in combo)
                for combo in product(range(n + 1), repeat=parts)
                if sum(combo) == n
            )
            assert exhaustive_min_pair_sum(n, parts) == plain


class _RecordingContext:
    """Stands in for a multiprocessing context: records the pool size and
    the chunks per task, and runs every chunk in this process."""

    def __init__(self):
        self.sizes = []
        self.chunksizes = []

    def Pool(self, size):
        self.sizes.append(size)
        return self

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def imap(self, fn, args, chunksize=1):
        self.chunksizes.append(chunksize)
        return map(fn, args)


@functools.cache
def serial_summary(kind, n):
    return run_sweep(kind, n, workers=1)


@pytest.mark.parametrize(
    "kind, n, workers, cpus, pools",
    [
        # --workers 2 on 2 CPUs starts no pool below 32 chunks.
        ("graph", 6, 2, 2, []),  # 8 chunks
        ("metric", 6, 2, 2, []),  # 8 chunks
        ("poset", 4, 2, 2, []),  # 27 chunks
        ("poset", 5, 2, 2, [2]),  # 81 chunks
        ("graph", 7, 2, 2, [2]),  # 512 chunks
        # The CPU clamp, and a box whose CPU count is unknown.
        ("poset", 5, 4, 3, [3]),
        ("poset", 5, 4, 1, []),
        ("poset", 5, 4, None, []),
        # No flag value gets more than one worker per 16 chunks.
        ("poset", 5, 1_000_000, 64, [5]),
        ("graph", 7, 1_000_000, 64, [32]),
    ],
)
def test_pool_gets_at_most_one_worker_per_16_chunks_and_per_cpu(
    monkeypatch, kind, n, workers, cpus, pools
):
    context = _RecordingContext()
    monkeypatch.setattr(multiprocessing, "get_context", lambda method: context)
    monkeypatch.setattr(sweeps.os, "cpu_count", lambda: cpus)
    chunks = len(sweeps.KINDS[kind].sweep.chunks(n))
    summary = run_sweep(kind, n, workers=workers)
    assert context.sizes == pools
    assert all(1 < size <= min(chunks // 16, cpus) for size in pools)
    assert summary == serial_summary(kind, n)


@pytest.mark.parametrize(
    "kind, n, workers, chunksize",
    [
        ("poset", 5, 2, 1),  # 81 chunks, fewer than 64 per worker
        ("graph", 7, 2, 8),  # 512 chunks, 256 per worker
        ("graph", 7, 4, 4),
        ("graph", 7, 1_000_000, 1),  # 32 workers of 16 chunks each
    ],
)
def test_a_pool_task_takes_several_chunks_only_when_each_worker_has_many(
    monkeypatch, kind, n, workers, chunksize
):
    # One task per chunk costs the parent a message per chunk; about 32
    # tasks per worker keep the parent's share small and still spread
    # uneven chunks.
    context = _RecordingContext()
    monkeypatch.setattr(multiprocessing, "get_context", lambda method: context)
    monkeypatch.setattr(sweeps.os, "cpu_count", lambda: 64)
    chunks = len(sweeps.KINDS[kind].sweep.chunks(n))
    summary = run_sweep(kind, n, workers=workers)
    (size,) = context.sizes
    assert context.chunksizes == [chunksize] == [max(1, chunks // (32 * size))]
    assert summary == serial_summary(kind, n)
