"""Acceptance suite.

One test per acceptance criterion; each prints a single PASS/FAIL line
(run with -s to see them live).  Every tolerance is exact integer or
set equality, and the stated wall-clock budgets are asserted.
"""

import io
import time
from itertools import combinations

from linesys import (
    Graph,
    comparability_graph,
    dbe_bound,
    min_pair_sum,
    run_sweep,
)
import linesys.sweeps as sweeps
from linesys.cli import main as cli_main
from linesys.construct import build_certificate
from reference import (
    all_lines,
    enumerate_graphs,
    enumerate_posets,
    exhaustive_min_pair_sum,
    graph_betweenness,
    line_mask_set,
    poset_betweenness,
)
from test_sweeps import flagged_sweep, record_pools


def report(number: int, description: str, ok: bool) -> None:
    print(f"criterion {number:2d} {'PASS' if ok else 'FAIL'}: {description}", flush=True)
    assert ok, f"criterion {number} failed: {description}"


# Hand-expanded bound values: height * C(floor(n/height), 2)
# + floor(n/height) * (n mod height) + height.
HAND_EXPANDED_BOUNDS = {
    (4, 2): 4, (4, 3): 4, (4, 4): 4,
    (5, 2): 6, (5, 3): 5, (5, 4): 5, (5, 5): 5,
    (6, 2): 8, (6, 3): 6, (6, 4): 6, (6, 5): 6, (6, 6): 6,
    (7, 2): 11, (7, 3): 8, (7, 4): 7,
    (8, 2): 14, (8, 3): 10,
    (9, 2): 18, (9, 3): 12,
    (10, 2): 22, (10, 3): 15,
    (12, 5): 14,
    (13, 4): 19,
    (20, 6): 30,
}


def test_criterion_1_bound_formula_exactness():
    ok = all(dbe_bound(n, h) == value for (n, h), value in HAND_EXPANDED_BOUNDS.items())
    ok = ok and len(HAND_EXPANDED_BOUNDS) >= 20
    # Equality regime: the bound collapses to n exactly when the height
    # reaches half the point count (2 * height >= n).
    for n in range(2, 41):
        for h in range(2, n + 1):
            ok = ok and (dbe_bound(n, h) == n) == (2 * h >= n)
            ok = ok and dbe_bound(n, h) >= n
    report(1, "height bound matches hand-expanded values and equality regime", ok)


def test_criterion_2_pair_sum_formula_vs_exhaustive_search():
    start = time.monotonic()
    cases = [(n, parts) for n in range(1, 13) for parts in range(1, n + 1)]
    ok = all(
        min_pair_sum(n, parts) == exhaustive_min_pair_sum(n, parts)
        for n, parts in cases
    )
    elapsed = time.monotonic() - start
    ok = ok and len(cases) == 78 and elapsed < 10.0
    # spot values, frozen from independent composition search
    ok = ok and min_pair_sum(5, 2) == 4
    ok = ok and min_pair_sum(6, 3) == 3
    ok = ok and min_pair_sum(7, 3) == 5
    report(2, f"pair-sum formula equals exhaustive minimum up to n=12 ({elapsed:.1f}s)", ok)


def test_criterion_3_poset_bound_exhaustive_with_certificates():
    ok = True
    timings = {}
    for n in range(2, 7):
        start = time.monotonic()
        summary = run_sweep("poset", n)
        timings[n] = time.monotonic() - start
        ok = ok and summary.ok
        ok = ok and not summary.violations
        ok = ok and not summary.certificate_failures
    ok = ok and timings[6] < 120.0
    report(
        3,
        f"all posets n<=6 meet the height bound with valid certificates "
        f"(n=6 in {timings[6]:.1f}s)",
        ok,
    )


def test_criterion_4_graph_bound_exhaustive():
    ok = True
    timings = {}
    for n in range(4, 8):
        start = time.monotonic()
        # The ids come from the jsonl rows; the stream (400 MB at n = 7)
        # is filtered as it is written.
        summary, rows = flagged_sweep("graph", n)
        timings[n] = time.monotonic() - start
        ok = ok and summary.ok
        ok = ok and not summary.violations
        equality = rows.ids("is_equality_case")
        ok = ok and equality == rows.ids("extremal_shape_match")
        ok = ok and summary.equality_cases == summary.shape_matches == len(equality)
    ok = ok and timings[7] < 600.0
    report(
        4,
        f"all graphs 4<=n<=7 have >= n lines; equality exactly on the "
        f"clique-plus-point shape (n=7 in {timings[7]:.1f}s)",
        ok,
    )


def test_criterion_5_three_point_equality_cases():
    summary, rows = flagged_sweep("graph", 3)
    # Expected equality cases, found independently: the empty graph plus
    # every graph with a dominant 2-clique and a low-degree third vertex.
    expected = {0}
    for mask in range(8):
        g = Graph.from_mask(3, mask)
        for v in range(3):
            u, w = [x for x in range(3) if x != v]
            if g.adj[v].bit_count() <= 1 and g.adj[u] >> w & 1:
                expected.add(mask)
    ok = summary.ok
    ok = ok and rows.ids("is_equality_case") == expected
    ok = ok and rows.ids("extremal_shape_match") == expected
    ok = ok and 0 in expected and summary.equality_cases == len(expected) == 7
    report(5, "n=3 equality cases are the extremal shapes plus the empty graph", ok)


def test_criterion_6_one_triangle_graphs_on_four_vertices():
    def triangle_count(g):
        return sum(
            1
            for a, b, c in combinations(range(4), 3)
            if g.adj[a] >> b & 1 and g.adj[a] >> c & 1 and g.adj[b] >> c & 1
        )

    one_triangle = [g for g in enumerate_graphs(4) if triangle_count(g) == 1]
    ok = len(one_triangle) == 16
    for g in one_triangle:
        ok = ok and len(all_lines(graph_betweenness(g))) == 4
    report(6, "every one-triangle graph on 4 vertices has exactly 4 lines", ok)


def test_criterion_7_poset_lines_equal_comparability_graph_lines():
    start = time.monotonic()
    ok = True
    checked = 0
    for n in range(2, 6):
        for p in enumerate_posets(n):
            poset_lines = {m for m, _ in all_lines(poset_betweenness(p))}
            graph_lines = {
                m for m, _ in all_lines(graph_betweenness(comparability_graph(p)))
            }
            ok = ok and poset_lines == graph_lines
            checked += 1
    elapsed = time.monotonic() - start
    ok = ok and checked == 3 + 19 + 219 + 4231 and elapsed < 60.0
    report(
        7,
        f"poset and comparability-graph line systems agree on all "
        f"{checked} posets with n<=5 ({elapsed:.1f}s)",
        ok,
    )


def test_criterion_8_window_accounting_identity():
    ok = True
    checked = 0
    for n in range(2, 7):
        for p in enumerate_posets(n):
            if p.height < 2 or (1 << n) - 1 in line_mask_set(poset_betweenness(p)):
                continue
            cert = build_certificate(p)
            windows = [(s.bottom, s.top) for s in cert.steps]
            k = len(windows)
            moved = sum(
                windows[i + 1][0] - windows[i][0]
                + windows[i][1] - windows[i + 1][1] - 1
                for i in range(k - 1)
            )
            ok = ok and moved == p.height - k - (windows[-1][1] - windows[-1][0])
            checked += 1
    ok = ok and checked > 100000
    report(
        8,
        f"window accounting identity holds for all {checked} certificates (n<=6)",
        ok,
    )


def test_criterion_9_metric_evidence_sweep():
    start = time.monotonic()
    ok = True
    for n in range(2, 7):
        summary = run_sweep("metric", n)
        ok = ok and summary.ok and not summary.violations
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 120.0
    # a violation would surface loudly: exit status 3 from the sweep command
    code = cli_main(["sweep", "--kind", "metric", "--n", "4"], out=io.StringIO())
    ok = ok and code == 0
    report(
        9,
        f"shortest-path metrics of connected graphs n<=6 all meet the "
        f"conjectured bound ({elapsed:.1f}s)",
        ok,
    )


def test_criterion_10_worker_determinism(monkeypatch):
    # Every sweep here is small enough to run in-process by default; the
    # patches make its 3-worker run start a real pool.
    pools = record_pools(monkeypatch)
    monkeypatch.setattr(sweeps, "_CHUNK_MASKS", 16)  # 4 graph and metric chunks
    ok = True
    for kind, n in (("graph", 4), ("poset", 4), ("metric", 4)):
        outputs = []
        for workers in (1, 3):
            stream = io.StringIO()
            summary = run_sweep(kind, n, workers=workers, jsonl=stream)
            outputs.append((stream.getvalue(), summary))
        ok = ok and pools == [2]
        pools.clear()
        ok = ok and outputs[0][0] == outputs[1][0]
        ok = ok and outputs[0][1] == outputs[1][1]
        ok = ok and len(outputs[0][0]) > 0
    report(10, "sweep output is byte-identical across worker counts", ok)
