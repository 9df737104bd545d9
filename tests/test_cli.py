import io
import json

import pytest

from linesys.cli import EXIT_INPUT, EXIT_OK, EXIT_VIOLATION, main

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


def test_lines_jsonl(graph_file):
    code, out = run_cli(["lines", "--kind", "graph", "--format", "jsonl", graph_file])
    assert code == EXIT_OK
    rows = [json.loads(row) for row in out.splitlines()]
    assert rows[-1] == {"count": 4}
    assert rows[0]["members"] == [0, 1, 2]
    assert len(rows[0]["generators"]) == 3


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
    code, out = run_cli(["bound", "--pair-sum-n", "7", "--parts", "3"])
    assert out == "5\n"
    code, out = run_cli(
        ["bound", "--poset-n", "6", "--height", "3", "--pair-sum-n", "6", "--parts", "3"]
    )
    assert out == "6\n3\n"


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


def test_sweep_pairsum():
    code, out = run_cli(["sweep", "--kind", "pairsum", "--n", "12"])
    assert code == EXIT_OK
    assert "result: ok" in out


def test_sweep_violation_exit_code(monkeypatch):
    import linesys.sweeps as sweeps

    real = sweeps.graph_report

    def inflated(g, instance_id=None):
        r = real(g, instance_id)
        return sweeps.VerificationReport(
            structure_kind=r.structure_kind, n=r.n, instance_id=r.instance_id,
            line_count=r.line_count, bound=r.bound + 100,
            has_universal=r.has_universal, meets_bound=False,
            is_equality_case=r.is_equality_case,
            extremal_shape_match=r.extremal_shape_match,
        )

    monkeypatch.setattr(sweeps, "graph_report", inflated)
    code, _ = run_cli(["sweep", "--kind", "graph", "--n", "3"])
    assert code == EXIT_VIOLATION


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
    "kind, n", [("poset", 9), ("graph", 2)], ids=["above-cap", "below-min"]
)
def test_rejected_sweep_leaves_its_out_file_alone(tmp_path, capsys, kind, n):
    argv = ["sweep", "--kind", kind, "--n", str(n), "--format", "jsonl", "--out"]
    earlier = tmp_path / "earlier.jsonl"
    earlier.write_bytes(b'{"kept": true}\n')
    assert run_cli([*argv, str(earlier)]) == (EXIT_INPUT, "")
    assert earlier.read_bytes() == b'{"kept": true}\n'
    absent = tmp_path / "absent.jsonl"
    assert run_cli([*argv, str(absent)]) == (EXIT_INPUT, "")
    assert not absent.exists()
    assert capsys.readouterr().err.count("error: ") == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "--kind", "graph", "--n", "3"],
        ["sweep", "--kind", "pairsum", "--n", "3", "--format", "jsonl"],
    ],
    ids=["text-format", "pairsum"],
)
def test_out_without_jsonl_reports_is_rejected(tmp_path, capsys, argv):
    target = tmp_path / "reports.jsonl"
    assert run_cli([*argv, "--out", str(target)]) == (EXIT_INPUT, "")
    assert not target.exists()
    err = capsys.readouterr().err
    assert err.startswith("error: --out needs --format jsonl") and err.count("\n") == 1
