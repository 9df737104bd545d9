import argparse
import hashlib
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linesys import construct, dbe_bound, enumeration, graphs, posets, sweeps
from linesys.cli import (
    EXIT_INPUT, EXIT_INTERNAL, EXIT_OK, EXIT_VIOLATION, INT_MAX_STR_DIGITS, build_parser,
    main,
)
from test_golden import workloads
from test_sweeps import (
    flip_the_shape,
    flip_the_verified_shape,
    record_pools,
    undercount_the_lines,
    undercount_the_verified_lines,
)

K3_PLUS_ISOLATED = "4 3\n0 1\n0 2\n1 2\n"
BRANCHING_POSET = "4 3\n0 1\n1 2\n3 2\n"
CHAIN_POSET = "3 2\n0 1\n1 2\n"


def run_cli(argv, stdin_text=None, tmp_path=None, monkeypatch=None):
    out = io.StringIO()
    if stdin_text is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin_text))
    code = main(argv, out=out)
    return code, out.getvalue()


@pytest.fixture
def graph_file(tmp_path):
    path = tmp_path / "graph.txt"
    path.write_text(K3_PLUS_ISOLATED)
    return str(path)


@pytest.fixture
def poset_file(tmp_path):
    path = tmp_path / "poset.txt"
    path.write_text(BRANCHING_POSET)
    return str(path)


def test_lines_text_output(graph_file):
    code, out = run_cli(["lines", "--kind", "graph", graph_file])
    assert code == EXIT_OK
    assert out == "0 1 2\n0 3\n1 3\n2 3\ncount 4\n"


def test_lines_reads_stdin(monkeypatch):
    code, out = run_cli(
        ["lines", "--kind", "graph"], stdin_text=K3_PLUS_ISOLATED, monkeypatch=monkeypatch
    )
    assert code == EXIT_OK
    assert out.endswith("count 4\n")


@pytest.mark.parametrize("fmt", ["text", "jsonl"])
@pytest.mark.parametrize(
    "kind, text, message",
    [
        ("graph", "1 0\n", "a line system needs at least two points"),
        ("hypergraph", "4 2\n0 1 2\n0 1 1\n",
         "line 3, column 1: edge 0 1 1 repeats a vertex"),
        ("hypergraph", "4 2\n0 1 2\n0 1 5\n",
         "line 3, column 5: edge vertex 5 out of range 0..3"),
        ("metric", "3\n0 1 5\n1 0 1\n5 1 0\n",
         "triangle inequality fails: dist[0][2] > dist[0][1] + dist[1][2]"),
        ("metric", "1\n0\n", "a line system needs at least two points"),
    ],
)
def test_lines_errors_come_before_the_first_byte(
    kind, text, message, fmt, monkeypatch, capsys
):
    # lines streams its rows, so every input error must be raised before
    # the first one: a failed run prints one error line and no stdout.
    argv = ["lines", "--kind", kind, "--format", fmt]
    assert run_cli(argv, text, monkeypatch=monkeypatch) == (EXIT_INPUT, "")
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("fmt", ["text", "jsonl"])
def test_lines_builder_rejects_a_bad_hypergraph_edge_before_the_first_byte(
    fmt, monkeypatch, capsys
):
    # An edge the parser would have caught, handed straight to the
    # builder after a good one: the builder raises before any row.
    monkeypatch.setattr(
        "linesys.sweeps.parse_hypergraph", lambda text: (4, [(0, 1, 2), (0, 1, 4)])
    )
    argv = ["lines", "--kind", "hypergraph", "--format", fmt]
    assert run_cli(argv, "", monkeypatch=monkeypatch) == (EXIT_INPUT, "")
    err = capsys.readouterr().err
    assert err == "error: edge [0, 1, 4] mentions vertex 4, outside 0..3\n"


def test_lines_jsonl(graph_file):
    code, out = run_cli(["lines", "--kind", "graph", "--format", "jsonl", graph_file])
    assert code == EXIT_OK
    rows = [json.loads(row) for row in out.splitlines()]
    assert rows[-1] == {"count": 4}
    assert rows[0]["members"] == [0, 1, 2]
    assert len(rows[0]["generators"]) == 3


@pytest.mark.parametrize("n, m, seed", [(60, 180, 1), (90, 2000, 2), (40, 700, 3)])
def test_lines_graph_matches_the_benchmark_oracle(n, m, seed, tmp_path):
    path = tmp_path / "graph.txt"
    path.write_text(workloads.random_graph_text(n, m, seed))
    code, out = run_cli(["lines", "--kind", "graph", str(path)])
    assert code == EXIT_OK
    assert out == workloads.oracle_lines_text(path.read_text())


def test_lines_parse_error_exits_one(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("3 1\n0 x\n")
    code, _ = run_cli(["lines", "--kind", "graph", str(bad)])
    assert code == EXIT_INPUT


def test_lines_other_kinds(tmp_path):
    metric = tmp_path / "m.txt"
    metric.write_text("3\n0 1 2\n1 0 1\n2 1 0\n")
    code, out = run_cli(["lines", "--kind", "metric", str(metric)])
    assert code == EXIT_OK
    # every pair of collinear points generates the same universal line
    assert out == "0 1 2\ncount 1\n"
    hyper = tmp_path / "h.txt"
    hyper.write_text("4 1\n0 1 2\n")
    code, out = run_cli(["lines", "--kind", "hypergraph", str(hyper)])
    assert code == EXIT_OK
    assert out.splitlines()[-1] == "count 4"


def test_bound_values():
    code, out = run_cli(["bound", "--poset-n", "10", "--height", "2"])
    assert code == EXIT_OK
    assert out == "22\n"


def test_bound_usage_errors():
    code, _ = run_cli(["bound"])
    assert code == EXIT_INPUT
    code, _ = run_cli(["bound", "--poset-n", "10"])
    assert code == EXIT_INPUT
    code, _ = run_cli(["bound", "--poset-n", "10", "--height", "1"])
    assert code == EXIT_INPUT


def test_bound_beyond_its_cap_is_a_one_line_error(capsys):
    # A result of more than 4300 digits used to end in a ValueError
    # traceback when printed.
    nines = "9" * 3000
    assert run_cli(["bound", "--poset-n", nines, "--height", "2"]) == (EXIT_INPUT, "")
    assert capsys.readouterr().err == "error: need n <= 10**2000, got a larger n\n"
    code, out = run_cli(["bound", "--poset-n", str(10**2000), "--height", "2"])
    assert (code, len(out)) == (EXIT_OK, 4001)


@pytest.mark.parametrize(
    "entry, message",
    [
        ("1e5000", "distance '1e5000': exponent beyond +-1000"),
        ("9" * 5000, "distance entry longer than 1000 characters"),
        ("1e999999999", "distance '1e999999999': exponent beyond +-1000"),
    ],
    ids=["exponent", "long-integer", "huge-exponent"],
)
def test_oversized_metric_entry_is_a_one_line_error(entry, message, monkeypatch, capsys):
    # verify prints the distances in its default instance id, which
    # ended in a ValueError traceback past 4300 digits.
    text = f"2\n0 {entry}\n{entry} 0\n"
    code, out = run_cli(["verify", "--kind", "metric"], text, monkeypatch=monkeypatch)
    assert (code, out) == (EXIT_INPUT, "")
    assert capsys.readouterr().err == f"error: line 2, column 3: {message}\n"


def test_metric_point_count_is_capped_before_any_entry_is_read(monkeypatch, capsys):
    # The triangle check is O(n^3): 1001 points are refused at the
    # header, not at the missing first entry.
    code, out = run_cli(["verify", "--kind", "metric"], "1001\n", monkeypatch=monkeypatch)
    assert (code, out) == (EXIT_INPUT, "")
    assert capsys.readouterr().err == (
        "error: line 1, column 1: point count n 1001 out of range 1..1000\n"
    )


def test_construct_trace(poset_file):
    code, out = run_cli(["construct", poset_file])
    assert code == EXIT_OK
    assert out == (
        "chain: 0 1 2\n"
        "layer line: 0 3\n"
        "iteration 1 step 2b window 1..3 outside 3\n"
        "  line: 0 3\n"
        "  line: 1 3\n"
        "  line: 2 3\n"
        "iteration 2 step 1 window 3..3\n"
        "  line: 0 1 2\n"
        "distinct 4 >= bound 4\n"
    )


def test_construct_jsonl(poset_file):
    code, out = run_cli(["construct", "--format", "jsonl", poset_file])
    assert code == EXIT_OK
    rows = [json.loads(row) for row in out.splitlines()]
    assert rows[0]["chain"] == [0, 1, 2]
    assert rows[1]["step"] == "2b"
    assert rows[-1] == {"distinct": 4, "bound": 4}


def test_construct_universal_poset_exits_one(tmp_path):
    chain = tmp_path / "chain.txt"
    chain.write_text(CHAIN_POSET)
    code, _ = run_cli(["construct", str(chain)])
    assert code == EXIT_INPUT


def test_verify_graph_ok(graph_file):
    code, out = run_cli(["verify", "--kind", "graph", graph_file])
    assert code == EXIT_OK
    assert "result: ok" in out
    assert "equality case: yes" in out


def test_verify_jsonl(graph_file):
    code, out = run_cli(["verify", "--kind", "graph", "--format", "jsonl", graph_file])
    assert code == EXIT_OK
    row = json.loads(out)
    assert row["structure_kind"] == "graph"
    assert row["meets_bound"] is True


def test_verify_poset_and_metric(tmp_path, poset_file):
    code, out = run_cli(["verify", "--kind", "poset", poset_file])
    assert code == EXIT_OK and "result: ok" in out
    metric = tmp_path / "m.txt"
    metric.write_text("3\n0 1 2\n1 0 1\n2 1 0\n")
    code, out = run_cli(["verify", "--kind", "metric", str(metric)])
    assert code == EXIT_OK and "universal yes" in out


@pytest.mark.parametrize("fmt, first", [
    ("text", "kind graph n 3000\nlines 4498500 bound 3000 universal no\n"),
    ("jsonl", '{"structure_kind": "graph", "n": 3000, "instance_id": 1, '
              '"line_count": 4498500, "bound": 3000, "has_universal": false, '),
], ids=["text", "jsonl"])
def test_verify_graph_builds_no_pair_list(fmt, first, monkeypatch):
    # Counting the lines and encoding the edge mask walk the adjacency
    # rows; a list of all C(n, 2) pairs would cost gigabytes at n = 3000.
    real = graphs.pair_list

    def small_only(n):
        assert n <= 8, f"pair_list({n}) built"
        return real(n)

    monkeypatch.setattr(graphs, "pair_list", small_only)
    code, out = run_cli(
        ["verify", "--kind", "graph", "--format", fmt], "3000 1\n0 1\n",
        monkeypatch=monkeypatch,
    )
    assert code == EXIT_OK
    assert out.startswith(first)


def test_verify_poset_on_1200_points(monkeypatch, capsys):
    # About 718k certificate lines of up to 1200 bits are counted by
    # sorting, with no list of all C(n, 2) pairs; the poset id is too
    # long to print as jsonl.
    real = enumeration.pair_list

    def small_only(n):
        assert n <= 8, f"pair_list({n}) built"
        return real(n)

    monkeypatch.setattr(enumeration, "pair_list", small_only)
    code, out = run_cli(
        ["verify", "--kind", "poset"], "1200 1\n0 1\n", monkeypatch=monkeypatch
    )
    assert code == EXIT_OK
    assert out == (
        "kind poset n 1200\nlines 719400 bound 359402 universal no\n"
        "equality case: no\nextremal shape: no\nresult: ok\n"
    )
    argv = ["verify", "--kind", "poset", "--format", "jsonl"]
    assert run_cli(argv, "1200 1\n0 1\n", monkeypatch=monkeypatch) == (EXIT_INPUT, "")
    err = capsys.readouterr().err
    assert err == "error: the instance id of this poset is too long to print as jsonl\n"


def test_verify_poset_text_builds_no_poset_id(monkeypatch, poset_file):
    # Text output prints no instance id, so it never encodes one; the
    # jsonl row still does.
    def refuse(p):
        raise AssertionError("text verify built a poset id")

    expected = run_cli(["verify", "--kind", "poset", poset_file])
    assert expected[0] == EXIT_OK
    monkeypatch.setattr(sweeps, "poset_code", refuse)
    assert run_cli(["verify", "--kind", "poset", poset_file]) == expected
    assert run_cli(
        ["verify", "--kind", "poset"], "1200 1\n0 1\n", monkeypatch=monkeypatch
    ) == (EXIT_OK, (
        "kind poset n 1200\nlines 719400 bound 359402 universal no\n"
        "equality case: no\nextremal shape: no\nresult: ok\n"
    ))
    with pytest.raises(AssertionError, match="text verify built a poset id"):
        run_cli(["verify", "--kind", "poset", "--format", "jsonl", poset_file])


SHORT_CODE_POSET_ROW = (
    '{"structure_kind": "poset", "n": 200, "instance_id": 1, "line_count": 19900, '
    '"bound": 9902, "has_universal": false, "meets_bound": true, '
    '"is_equality_case": false, "extremal_shape_match": false}\n'
)


def test_verify_jsonl_refuses_a_long_poset_id_before_building_it(monkeypatch, capsys):
    # The code of 0 < 1 on 1200 points has C(1200, 2) = 719,400 base-3
    # digits, one per pair from (0, 1) on, so its length alone refuses it.
    def refuse(p):
        raise AssertionError("a poset id too long to print was built")

    monkeypatch.setattr(sweeps, "poset_code", refuse)
    argv = ["verify", "--kind", "poset", "--format", "jsonl"]
    assert run_cli(argv, "1200 1\n0 1\n", monkeypatch=monkeypatch) == (EXIT_INPUT, "")
    assert capsys.readouterr().err == (
        "error: the instance id of this poset is too long to print as jsonl\n"
    )
    # The code of 198 < 199 has one digit, at the last pair: it prints.
    monkeypatch.setattr(sweeps, "poset_code", enumeration.poset_code)
    assert run_cli(argv, "200 1\n198 199\n", monkeypatch=monkeypatch) == (
        EXIT_OK, SHORT_CODE_POSET_ROW
    )


def test_verify_jsonl_refuses_a_long_graph_id_before_building_it(monkeypatch, capsys):
    # The edge mask's top bit is the last edge's pair index i, so the
    # mask has more than 4,300 digits once i * log10(2) reaches 4,300:
    # from i = 14,285, the pair (156, 168) of 170 vertices, on.  The
    # mask of (59998, 59999) on 60,000 vertices alone takes 225 MB.
    def refuse(g):
        raise AssertionError("a graph id too long to print was built")

    real = graphs.Graph.edge_mask
    monkeypatch.setattr(graphs.Graph, "edge_mask", refuse)
    argv = ["verify", "--kind", "graph", "--format", "jsonl"]
    for text in (
        "170 1\n156 168\n", "60000 1\n59998 59999\n", "200000 1\n199998 199999\n"
    ):
        assert run_cli(argv, text, monkeypatch=monkeypatch) == (EXIT_INPUT, "")
        assert capsys.readouterr().err == (
            "error: the instance id of this graph is too long to print as jsonl\n"
        )
    # (156, 167) has index 14,284: its mask 2 ** 14,284 has 4,300 digits
    # and prints, in the bytes the row had before this refusal existed.
    monkeypatch.setattr(graphs.Graph, "edge_mask", real)
    code, out = run_cli(argv, "170 1\n156 167\n", monkeypatch=monkeypatch)
    assert (code, len(out), hashlib.sha256(out.encode()).hexdigest()) == (
        EXIT_OK, 4493, "b8068f4291f41c5214114f6435f335c800a5ac4bbaa9560a5f8e42028015f493"
    )
    assert out.index('"line_count"') - out.index('"instance_id"') == 4300 + 17


COMPLETE_200 = "200 19900\n" + "".join(
    f"{a} {b}\n" for a in range(200) for b in range(a + 1, 200)
)


@pytest.mark.parametrize("limit", [0, 640])
def test_bytes_do_not_depend_on_the_interpreter_digit_limit(limit, monkeypatch, capsys):
    # Every case prints or refuses a number near the digit limit: ids of
    # 5,991 (the complete graph's edge mask) and 1 digits, a refused
    # 719,400-digit base-3 poset code, a 1,201-digit bound and a
    # 5,000-digit argument.  The sweep's forked workers check that they
    # run under the pinned limit too.
    pools = record_pools(monkeypatch)
    real = sweeps.certificate_issues

    def pinned(cert, p):
        assert sys.get_int_max_str_digits() == INT_MAX_STR_DIGITS
        return real(cert, p)

    monkeypatch.setattr(sweeps, "certificate_issues", pinned)
    verify = ["verify", "--format", "jsonl", "--kind"]
    cases = [
        ([*verify, "graph"], COMPLETE_200, EXIT_INPUT),
        ([*verify, "poset"], "1200 1\n0 1\n", EXIT_INPUT),
        ([*verify, "poset"], "200 1\n198 199\n", EXIT_OK),
        (["bound", "--poset-n", "9" * 600, "--height", "2"], None, EXIT_OK),
        (["bound", "--poset-n", "9" * 5000, "--height", "2"], None, EXIT_INPUT),
        (["sweep", "--kind", "poset", "--n", "4", "--workers", "2"], None, EXIT_OK),
    ]

    def outcomes():
        results = []
        for argv, text, _ in cases:
            code, out = run_cli(argv, text, monkeypatch=monkeypatch)
            results.append((code, out, capsys.readouterr().err))
        return results

    expected = outcomes()
    assert [code for code, _, _ in expected] == [code for _, _, code in cases]
    assert len(expected[3][1]) == 1201
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        assert outcomes() == expected
        assert sys.get_int_max_str_digits() == limit
    finally:
        sys.set_int_max_str_digits(saved)
    assert pools == [2, 2]


def test_verify_hypergraph_rejected(tmp_path):
    hyper = tmp_path / "h.txt"
    hyper.write_text("4 1\n0 1 2\n")
    code, _ = run_cli(["verify", "--kind", "hypergraph", str(hyper)])
    assert code == EXIT_INPUT


def test_verify_antichain_poset_rejected(tmp_path):
    antichain = tmp_path / "a.txt"
    antichain.write_text("3 0\n")
    code, _ = run_cli(["verify", "--kind", "poset", str(antichain)])
    assert code == EXIT_INPUT


def test_sweep_text_summary():
    code, out = run_cli(["sweep", "--kind", "graph", "--n", "4"])
    assert code == EXIT_OK
    assert "enumerated 64" in out
    assert "violations 0" in out
    assert "result: ok" in out


def test_sweep_jsonl_to_file_and_determinism(tmp_path):
    first = tmp_path / "a.jsonl"
    second = tmp_path / "b.jsonl"
    code, _ = run_cli(
        ["sweep", "--kind", "poset", "--n", "3", "--format", "jsonl", "--out", str(first)]
    )
    assert code == EXIT_OK
    code, _ = run_cli(
        ["sweep", "--kind", "poset", "--n", "3", "--format", "jsonl",
         "--workers", "2", "--out", str(second)]
    )
    assert code == EXIT_OK
    assert first.read_bytes() == second.read_bytes()
    rows = [json.loads(row) for row in first.read_text().splitlines()]
    assert all(row["meets_bound"] for row in rows)


def test_sweep_violation_exit_code(monkeypatch):
    undercount_the_lines(monkeypatch)
    code, _ = run_cli(["sweep", "--kind", "graph", "--n", "3"])
    assert code == EXIT_VIOLATION


def test_sweep_shape_disagreement_exit_code(monkeypatch):
    flip_the_shape(monkeypatch)
    code, out = run_cli(["sweep", "--kind", "graph", "--n", "4"])
    assert code == EXIT_VIOLATION
    assert "equality cases and the extremal shape disagree" in out
    assert out.endswith("result: VIOLATION\n")


@pytest.mark.parametrize(
    "plant",
    [flip_the_shape, undercount_the_lines],
    ids=["flip_the_shape", "undercount_the_lines"],
)
def test_sweep_poset_violation_exit_code(monkeypatch, plant):
    # A poset sweep counts its comparability graphs with the batch kernel.
    plant(monkeypatch, "graph_list_planes")
    code, out = run_cli(["sweep", "--kind", "poset", "--n", "4"])
    assert code == EXIT_VIOLATION
    assert "certificate failures 0\n" in out
    assert out.endswith("result: VIOLATION\n")


@pytest.mark.parametrize("fmt", ["text", "jsonl"])
@pytest.mark.parametrize(
    "plant",
    [flip_the_verified_shape, undercount_the_verified_lines],
    ids=["flip_the_shape", "undercount_the_lines"],
)
def test_verify_graph_violation_exit_code(monkeypatch, graph_file, plant, fmt):
    plant(monkeypatch)
    code, out = run_cli(["verify", "--kind", "graph", "--format", fmt, graph_file])
    assert code == EXIT_VIOLATION
    if fmt == "text":
        assert out.endswith("result: THEOREM VIOLATION\n")
    else:
        assert json.loads(out)["structure_kind"] == "graph"


@pytest.mark.parametrize(
    "kind, text", [("graph", "200 1\n198 199\n"), ("poset", "140 1\n0 1\n")]
)
def test_verify_jsonl_of_an_id_too_long_to_print_is_a_one_line_error(
    kind, text, monkeypatch, capsys
):
    # The default ids here (an edge mask with bit 19,899 set, a base-3
    # code of 9,730 digits) exceed Python's int-to-str digit limit.
    argv = ["verify", "--kind", kind, "--format", "jsonl"]
    code, out = run_cli(argv, text, monkeypatch=monkeypatch)
    assert code == EXIT_INPUT and out == ""
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    code, out = run_cli(argv[:-2], text, monkeypatch=monkeypatch)
    assert code == EXIT_OK and out.endswith("result: ok\n")


def test_verify_jsonl_sends_a_certificate_problem_to_stderr(
    monkeypatch, capsys, poset_file
):
    import linesys.sweeps as sweeps

    monkeypatch.setattr(
        sweeps, "certificate_issues", lambda cert, p: ["planted defect"]
    )
    code, out = run_cli(["verify", "--kind", "poset", "--format", "jsonl", poset_file])
    assert code == EXIT_INTERNAL
    (row,) = out.splitlines()
    assert json.loads(row)["structure_kind"] == "poset"
    assert capsys.readouterr().err == "certificate problem: planted defect\n"
    code, out = run_cli(["verify", "--kind", "poset", poset_file])
    assert code == EXIT_INTERNAL
    assert out.endswith("extremal shape: yes\ncertificate problem: planted defect\n")
    assert capsys.readouterr().err == ""


def test_an_undercounted_certificate_is_an_internal_error(monkeypatch, capsys, poset_file):
    # construct compares the certificate's distinct total with the bound
    # before it prints, and the sweep's replay reports the shortfall.
    monkeypatch.setattr(construct, "_distinct_lines", lambda layers, steps: 3)
    for fmt in ("text", "jsonl"):
        argv = ["construct", "--format", fmt, poset_file]
        assert run_cli(argv) == (EXIT_INTERNAL, "")
        assert capsys.readouterr().err == (
            "internal error: process found 3 distinct lines, below the guaranteed 4\n"
        )
    code, out = run_cli(["sweep", "--kind", "poset", "--n", "4"])
    assert code == EXIT_INTERNAL
    assert "certificate failures 158\n" in out
    assert "issue: 158 certificates failed to verify\n" in out


def test_python_dash_m_runs_the_cli():
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src if not path else f"{src}{os.pathsep}{path}"}
    result = subprocess.run(
        [sys.executable, "-m", "linesys", "bound", "--poset-n", "10", "--height", "2"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert (result.returncode, result.stdout, result.stderr) == (
        EXIT_OK, f"{dbe_bound(10, 2)}\n", ""
    )


def test_starting_the_cli_loads_neither_dataclasses_nor_inspect():
    # -S: no .pth file of the site packages can import either one first.
    src = str(Path(__file__).resolve().parent.parent / "src")
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import linesys.cli; "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    result = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, timeout=60
    )
    assert (result.returncode, result.stdout, result.stderr) == (0, "[]\n", "")


def test_usage_errors_exit_one():
    code, _ = run_cli(["sweep", "--kind", "nonsense", "--n", "4"])
    assert code == EXIT_INPUT
    code, _ = run_cli(["frobnicate"])
    assert code == EXIT_INPUT


def test_missing_file_exits_one():
    code, _ = run_cli(["lines", "--kind", "graph", "/nonexistent/file.txt"])
    assert code == EXIT_INPUT


def test_output_is_deterministic(graph_file):
    outputs = {run_cli(["lines", "--kind", "graph", graph_file])[1] for _ in range(3)}
    assert len(outputs) == 1


def test_undecodable_input_is_a_one_line_error(tmp_path, monkeypatch, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"3 1\n0 \xff\n")
    code, out = run_cli(["lines", "--kind", "graph", str(bad)])
    assert (code, out) == (EXIT_INPUT, "")
    err = capsys.readouterr().err
    assert err.startswith("error: cannot decode ") and err.count("\n") == 1
    # A stdin that would hand undecodable bytes on as surrogates, as
    # under a C or POSIX locale, is decoded strictly all the same.
    for errors in ("strict", "surrogateescape"):
        raw = io.BytesIO(b"3 1\n0 \xff\n")
        stdin = io.TextIOWrapper(raw, encoding="utf-8", errors=errors)
        monkeypatch.setattr("sys.stdin", stdin)
        code, out = run_cli(["lines", "--kind", "graph"])
        assert (code, out) == (EXIT_INPUT, "")
        err = capsys.readouterr().err
        assert err.startswith("error: cannot decode standard input: ")
        assert err.count("\n") == 1


@pytest.mark.parametrize(
    "kind, n",
    [("poset", 9), ("graph", 2), ("graph", 8)],
    ids=["above-cap", "below-min", "above-jsonl-cap"],
)
def test_rejected_sweep_leaves_its_out_file_alone(tmp_path, capsys, monkeypatch, kind, n):
    # No chunk may run: past the checks, graph n = 8 would write about 52 GB.
    monkeypatch.setattr(sweeps, "_run_chunk", None)
    argv = ["sweep", "--kind", kind, "--n", str(n), "--format", "jsonl", "--out"]
    earlier = tmp_path / "earlier.jsonl"
    earlier.write_bytes(b'{"kept": true}\n')
    assert run_cli([*argv, str(earlier)]) == (EXIT_INPUT, "")
    assert earlier.read_bytes() == b'{"kept": true}\n'
    absent = tmp_path / "absent.jsonl"
    assert run_cli([*argv, str(absent)]) == (EXIT_INPUT, "")
    assert not absent.exists()
    assert capsys.readouterr().err.count("error: ") == 2


# Each sweep kind's (min_n, cap, jsonl_cap), pinned literally so that
# moving where the limits are written can change no refusal.  The jsonl
# cap is one constant for every kind.
SWEEP_LIMITS = {"graph": (3, 8, 7), "poset": (2, 7, 7), "metric": (2, 7, 7)}


@pytest.mark.parametrize("kind", SWEEP_LIMITS)
def test_each_sweep_kind_refuses_exactly_past_its_limits(tmp_path, capsys, monkeypatch, kind):
    min_n, cap, jsonl_cap = SWEEP_LIMITS[kind]
    entry = sweeps.KINDS[kind].sweep
    assert (entry.min_n, entry.cap, sweeps._JSONL_CAP) == SWEEP_LIMITS[kind]
    below = f"error: {kind} sweeps need n >= {min_n}, got {min_n - 1}\n"
    above = f"error: {kind} sweeps support n <= {cap}, got {cap + 1}\n"
    # Past the cap the cap's message wins, so a jsonl cap at the cap
    # refuses with it.
    above_jsonl = (
        f"error: {kind} sweeps write jsonl for n <= {jsonl_cap}, got {jsonl_cap + 1}\n"
        if jsonl_cap < cap else above
    )
    monkeypatch.setattr(sweeps, "_run_chunk", None)
    target = tmp_path / "reports.jsonl"
    for n, jsonl, err in (
        (min_n - 1, False, below), (min_n - 1, True, below),
        (cap + 1, False, above), (cap + 1, True, above),
        (jsonl_cap + 1, True, above_jsonl),
    ):
        argv = ["sweep", "--kind", kind, "--n", str(n)]
        if jsonl:
            argv += ["--format", "jsonl", "--out", str(target)]
        assert run_cli(argv) == (EXIT_INPUT, "")
        assert capsys.readouterr().err == err
        assert not target.exists()
    # The limits themselves are admitted.
    for n, jsonl in ((min_n, False), (min_n, True), (cap, False), (jsonl_cap, True)):
        assert sweeps.sweep_kind(kind, n, jsonl) is entry


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_sweep_rejects_fewer_than_one_worker(tmp_path, capsys, monkeypatch, workers):
    # Such counts once ran serially; now no chunk runs and --out stays unopened.
    monkeypatch.setattr(sweeps, "_run_chunk", None)
    target = tmp_path / "reports.jsonl"
    for argv in (
        ["sweep", "--kind", "graph", "--n", "3"],
        ["sweep", "--kind", "poset", "--n", "3", "--format", "jsonl", "--out", str(target)],
        ["sweep", "--kind", "metric", "--n", "3"],
    ):
        assert run_cli([*argv, "--workers", workers]) == (EXIT_INPUT, "")
        err = capsys.readouterr().err
        assert err == f"error: --workers needs at least 1, got {workers}\n"
    assert not target.exists()


def test_graph_jsonl_stops_below_the_text_sweep(monkeypatch, capsys):
    # A graph stream at n = 8 would be about 52 GB; it is refused before
    # any chunk runs, while the text summary at n = 8 stays allowed.
    monkeypatch.setattr(sweeps, "graph_mask_planes", None)
    argv = ["sweep", "--kind", "graph", "--n", "8", "--format", "jsonl"]
    assert run_cli(argv) == (EXIT_INPUT, "")
    assert capsys.readouterr().err == "error: graph sweeps write jsonl for n <= 7, got 8\n"
    assert sweeps.sweep_kind("graph", 8) == sweeps.KINDS["graph"].sweep


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "--kind", "graph", "--n", "3"],
        ["sweep", "--kind", "metric", "--n", "3"],
    ],
    ids=["text-format", "metric-text-format"],
)
def test_out_without_jsonl_reports_is_rejected(tmp_path, capsys, argv):
    target = tmp_path / "reports.jsonl"
    assert run_cli([*argv, "--out", str(target)]) == (EXIT_INPUT, "")
    assert not target.exists()
    err = capsys.readouterr().err
    assert err.startswith("error: --out needs --format jsonl") and err.count("\n") == 1


def test_sweep_rejects_the_removed_pairsum_kind(tmp_path, capsys):
    # The pair-sum search is a test reference (tests/reference.py),
    # not a sweep kind.
    target = tmp_path / "reports.jsonl"
    for argv in (
        ["sweep", "--kind", "pairsum", "--n", "3"],
        ["sweep", "--kind", "pairsum", "--n", "3", "--format", "jsonl", "--out", str(target)],
    ):
        assert run_cli(argv) == (EXIT_INPUT, "")
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err
    assert not target.exists()


def test_each_kind_flag_offers_exactly_the_described_kinds():
    # A kind added to or dropped from only one of the parser and its
    # table fails here.
    commands = next(
        action.choices
        for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )

    def kind_choices(command):
        return next(
            action.choices
            for action in commands[command]._actions
            if action.dest == "kind"
        )

    kinds = sweeps.KINDS
    assert kind_choices("sweep") == tuple(name for name in kinds if kinds[name].sweep)
    assert kind_choices("lines") == tuple(kinds)
    assert kind_choices("verify") == tuple(kinds)


# --- fuzzed metric input ----------------------------------------------------

ODD_ENTRIES = [
    "1.5", "0.25", "1e2", "2E-1", "-1", "0", "nan", "inf", "-inf", "1/0", "0/0",
    "x", "1,2", "0x1", "1_0", "+3", ".5", "5.", "--1", "1//2", "1e5000",
    "9" * 1200, "١", "1e", "e1", "1/2/3",
]


@st.composite
def metric_texts(draw):
    """Metric input text: a valid metric, a symmetric matrix that may
    break the triangle inequality, or a matrix of arbitrary tokens, then
    perhaps mutated into an asymmetric, malformed or misdeclared one."""
    n = draw(st.integers(min_value=1, max_value=5))
    shape = draw(st.sampled_from(["metric", "symmetric", "tokens"]))
    if shape == "tokens":
        entry = st.one_of(
            st.integers(-3, 20).map(str),
            st.builds("{}/{}".format, st.integers(-5, 20), st.integers(-2, 9)),
            st.sampled_from(ODD_ENTRIES),
        )
        rows = [[draw(entry) for _ in range(n)] for _ in range(n)]
    else:
        upper = {
            (i, j): draw(st.fractions(min_value=1, max_value=6, max_denominator=4))
            for i in range(n) for j in range(i + 1, n)
        }
        dist = [[upper.get((min(i, j), max(i, j)), 0) for j in range(n)] for i in range(n)]
        if shape == "metric":  # shortest paths over the weights
            for k in range(n):
                for i in range(n):
                    for j in range(n):
                        dist[i][j] = min(dist[i][j], dist[i][k] + dist[k][j])
        rows = [[str(d) for d in row] for row in dist]
    mutation = draw(st.sampled_from(["none", "asymmetric", "drop", "extra", "header"]))
    header = str(n)
    if mutation == "asymmetric" and n > 1:
        rows[0][1] = str(draw(st.integers(1, 9)))
    elif mutation == "drop":
        rows[-1].pop()
    elif mutation == "extra":
        rows[-1].append(draw(st.sampled_from(["0", "1", "x"])))
    elif mutation == "header":
        header = draw(st.sampled_from([str(n + 1), str(n - 1), "0", "-2", "a", "10001", ""]))
    return header + "\n" + "".join(" ".join(row) + "\n" for row in rows)


@given(
    metric_texts(),
    st.sampled_from(["verify", "lines"]),
    st.sampled_from(["text", "jsonl"]),
)
@settings(max_examples=300, deadline=None)
def test_fuzzed_metric_input_ends_in_an_exit_code_never_a_traceback(text, command, fmt):
    out, err = io.StringIO(), io.StringIO()
    argv = [command, "--kind", "metric", "--format", fmt]
    with mock.patch("sys.stdin", io.StringIO(text)), redirect_stderr(err):
        code = main(argv, out=out)
    assert code in (EXIT_OK, EXIT_INPUT, EXIT_VIOLATION)
    err = err.getvalue()
    if code == EXIT_INPUT:
        assert err.startswith("error: ") and err.count("\n") == 1
        assert out.getvalue() == ""
    else:
        assert err == "" and out.getvalue()


# --- fuzzed graph, poset and hypergraph input --------------------------------

ODD_POINTS = ["-1", "x", "1.5", "0x1", "+1", "1_0", "١", "1e1", "99999999999999999999"]


@st.composite
def structure_texts(draw, arity):
    """Text of n <= 30 points and up to 40 rows of ``arity`` points.
    Most inputs are valid: distinct rows of distinct points, oriented
    along a random order so that a poset is acyclic.  The rest repeat a
    row or a point, hold an odd token, or have a wrong header or a
    missing or extra token."""
    n = draw(st.integers(min_value=1, max_value=30))
    rank = draw(st.permutations(range(n)))
    valid = draw(st.integers(0, 3)) > 0
    rows = {}
    for _ in range(draw(st.integers(min_value=0, max_value=40))):
        row = draw(st.lists(st.integers(0, n - 1), min_size=arity, max_size=arity,
                            unique=valid and n >= arity))
        if valid or draw(st.booleans()):
            row.sort(key=rank.__getitem__)
        rows.setdefault(frozenset(row), [str(v) for v in row])
    rows = list(rows.values())
    mutation = "none" if valid else draw(
        st.sampled_from(["none", "repeat", "token", "header", "drop", "extra"])
    )
    header = f"{n} {len(rows)}"
    if mutation == "repeat" and rows:
        rows.append(list(draw(st.sampled_from(rows))))
        header = f"{n} {len(rows)}"
    elif mutation == "token" and rows:
        row = draw(st.sampled_from(rows))
        row[draw(st.integers(0, arity - 1))] = draw(st.sampled_from([*ODD_POINTS, str(n)]))
    elif mutation == "header":
        header = draw(st.sampled_from([
            f"{n} {len(rows) + 1}", f"{n} {max(len(rows) - 1, 0)}", f"{n}",
            f"0 {len(rows)}", f"{n} -1", f"a {len(rows)}", "",
        ]))
    elif mutation == "drop" and rows:
        rows[-1].pop()
    elif mutation == "extra":
        rows.append(["0"])
    return header + "\n" + "".join(" ".join(row) + "\n" for row in rows)


@given(
    st.sampled_from([("graph", 2), ("poset", 2), ("hypergraph", 3)]).flatmap(
        lambda kind: st.tuples(st.just(kind[0]), structure_texts(kind[1]))
    ),
    st.sampled_from(["lines", "verify", "construct"]),
    st.sampled_from(["text", "jsonl"]),
)
@settings(max_examples=300, deadline=None)
def test_fuzzed_structure_input_ends_in_an_exit_code_never_a_traceback(case, command, fmt):
    kind, text = case
    out, err = io.StringIO(), io.StringIO()
    argv = [command, "--format", fmt]
    if command != "construct":  # construct reads a poset, whatever the text
        argv += ["--kind", kind]
    with mock.patch("sys.stdin", io.StringIO(text)), redirect_stderr(err):
        code = main(argv, out=out)
    assert code in (EXIT_OK, EXIT_INPUT, EXIT_VIOLATION)
    err = err.getvalue()
    if code == EXIT_INPUT:
        assert err.startswith("error: ") and err.count("\n") == 1
        assert out.getvalue() == ""
    else:
        assert err == "" and out.getvalue()


def test_only_parsed_posets_go_through_the_validating_constructor(monkeypatch, capsys):
    # The sweep builds its posets from the enumerator's closed rows with
    # Poset._from_closed; verify still validates the poset it parses.
    calls = []
    validate = posets.Poset.__init__

    def counting(self, rows):
        calls.append(len(rows))
        validate(self, rows)

    monkeypatch.setattr(posets.Poset, "__init__", counting)
    summary = sweeps.run_sweep("poset", 5)
    assert summary[2:7] == (4231, 4230, 780, 360, 360) and summary.ok
    assert calls == []
    cycle = "3 3\n0 1\n1 2\n2 0\n"
    assert run_cli(["verify", "--kind", "poset"], cycle, monkeypatch=monkeypatch) == (
        EXIT_INPUT, ""
    )
    assert capsys.readouterr().err == (
        "error: cover relations create a cycle through point 0\n"
    )
    assert calls == [3]
    outside = "3 1\n0 3\n"
    assert run_cli(["verify", "--kind", "poset"], outside, monkeypatch=monkeypatch) == (
        EXIT_INPUT, ""
    )
    assert capsys.readouterr().err == (
        "error: line 2, column 3: cover endpoint 3 out of range 0..2\n"
    )
    assert run_cli(["verify", "--kind", "poset", "--format", "jsonl"], CHAIN_POSET,
                   monkeypatch=monkeypatch)[0] == EXIT_OK
    assert calls == [3, 3]
