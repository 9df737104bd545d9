"""Golden bytes: the exact output of the command-line client.

The sweep streams are pinned by length and SHA-256, once per worker
count; the per-instance commands are pinned verbatim on the README
examples.  Any refactor must leave every one of these bytes alone.
"""

import hashlib
import importlib.util
import io
import random
from pathlib import Path

import pytest

from linesys.cli import main

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def load_workloads():
    """The benchmark's input generator and output oracle, loaded by path."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = load_workloads()


def random_poset_text(n, seed):
    """Covers between randomly ordered points, each with probability 1/4."""
    rng = random.Random(seed)
    order = rng.sample(range(n), n)
    covers = [
        (order[i], order[j])
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < 0.25
    ]
    return f"{n} {len(covers)}\n" + "".join(f"{a} {b}\n" for a, b in covers)


GRAPH = "4 3\n0 1\n0 2\n1 2\n"
POSET = "4 3\n0 1\n1 2\n3 2\n"
METRIC = "3\n0 1 2\n1 0 1\n2 1 0\n"
HYPERGRAPH = "4 1\n0 1 2\n"
INPUTS = {"graph": GRAPH, "poset": POSET, "metric": METRIC, "hypergraph": HYPERGRAPH}

SWEEP_STREAMS = {
    ("graph", 5): (
        192_728,
        "fb4b3320dbb97551a92bcb991e1ba347722f74370f52c384968d54147c04fbb7",
    ),
    ("graph", 6): (
        6_245_268,
        "03dfdab6e2d450bd7d55a93f6978f503527776cf9750a372e12da3aa2521a786",
    ),
    ("poset", 4): (
        40_725,
        "17ccf62a945ac19ca057d579864b9fdbeaa306be515d24f2ad5e91f1dfb1d3dd",
    ),
    ("poset", 5): (
        801_598,
        "4ed180d93c5fa5e16c0949009486301c756f6add038c5e41342011fcebf3b039",
    ),
    ("metric", 5): (
        137_108,
        "3e487b8bc3a09e9c11a4c2646eb3455ce80760a3cc51465674d82280dd1b84d3",
    ),
    ("metric", 6): (
        5_084_961,
        "f5dd80078c16984593855683acea6cbdf8d54ea8d4600ada0276bf6316972d51",
    ),
}

# Line systems at benchmark scale, keyed by (kind, format): the input
# text and the length and SHA-256 of stdout.
LARGE_LINES = {
    ("graph", "text"): (
        workloads.random_graph_text(300, 900, 7),
        325_653,
        "c84d21f03a547f2798f53d62cafbfeeb7e78dd955744281d2f310774054761ba",
    ),
    ("graph", "jsonl"): (
        workloads.random_graph_text(300, 900, 7),
        2_264_353,
        "a26ce892da077a4f9861650cac401be9274e26b4e257135ac7a8666718977d75",
    ),
    ("poset", "jsonl"): (
        random_poset_text(12, 7),
        2_692,
        "8d894419e52d2c29f5e63fd4bd1ca15574d16f756c3582ce603b246a06c1886f",
    ),
}

FOUR_LINES = "0 1 2\n0 3\n1 3\n2 3\ncount 4\n"
FOUR_LINES_JSONL = (
    '{"members": [0, 1, 2], "generators": [[0, 1], [0, 2], [1, 2]]}\n'
    '{"members": [0, 3], "generators": [[0, 3]]}\n'
    '{"members": [1, 3], "generators": [[1, 3]]}\n'
    '{"members": [2, 3], "generators": [[2, 3]]}\n'
    '{"count": 4}\n'
)

LINES_TEXT = {
    "graph": FOUR_LINES,
    "poset": FOUR_LINES,
    "metric": "0 1 2\ncount 1\n",
    "hypergraph": FOUR_LINES,
}

LINES_JSONL = {
    "graph": FOUR_LINES_JSONL,
    "poset": FOUR_LINES_JSONL,
    "metric": (
        '{"members": [0, 1, 2], "generators": [[0, 1], [0, 2], [1, 2]]}\n'
        '{"count": 1}\n'
    ),
    "hypergraph": FOUR_LINES_JSONL,
}

VERIFY_TEXT = {
    "graph": (
        "kind graph n 4\n"
        "lines 4 bound 4 universal no\n"
        "equality case: yes\n"
        "extremal shape: yes\n"
        "result: ok\n"
    ),
    "poset": (
        "kind poset n 4\n"
        "lines 4 bound 4 universal no\n"
        "equality case: yes\n"
        "extremal shape: yes\n"
        "result: ok\n"
    ),
    "metric": (
        "kind metric n 3\n"
        "lines 1 bound 3 universal yes\n"
        "equality case: no\n"
        "extremal shape: no\n"
        "result: ok\n"
    ),
}

VERIFY_JSONL = {
    "graph": (
        '{"structure_kind": "graph", "n": 4, "instance_id": 11, "line_count": 4, '
        '"bound": 4, "has_universal": false, "meets_bound": true, '
        '"is_equality_case": true, "extremal_shape_match": true}\n'
    ),
    "poset": (
        '{"structure_kind": "poset", "n": 4, "instance_id": 335, "line_count": 4, '
        '"bound": 4, "has_universal": false, "meets_bound": true, '
        '"is_equality_case": true, "extremal_shape_match": true}\n'
    ),
    "metric": (
        '{"structure_kind": "metric", "n": 3, "instance_id": "0,1,2;1,0,1;2,1,0", '
        '"line_count": 1, "bound": 3, "has_universal": true, "meets_bound": true, '
        '"is_equality_case": false, "extremal_shape_match": false}\n'
    ),
}


CONSTRUCT_TEXT = (
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

CONSTRUCT_JSONL = (
    '{"chain": [0, 1, 2], "layer_lines": [[0, 3]]}\n'
    '{"iteration": 1, "step": "2b", "bottom": 1, "top": 3, "probe": 3, '
    '"lines": [[0, 3], [1, 3], [2, 3]]}\n'
    '{"iteration": 2, "step": "1", "bottom": 3, "top": 3, "probe": null, '
    '"lines": [[0, 1, 2]]}\n'
    '{"distinct": 4, "bound": 4}\n'
)


def run(argv, stdin_text, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(stdin_text))
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("kind, n", sorted(SWEEP_STREAMS))
def test_sweep_jsonl_stream_bytes(kind, n, workers):
    out = io.StringIO()
    argv = ["sweep", "--kind", kind, "--n", str(n), "--format", "jsonl",
            "--workers", str(workers)]
    assert main(argv, out=out) == 0
    data = out.getvalue().encode()
    size, digest = SWEEP_STREAMS[kind, n]
    assert len(data) == size
    assert hashlib.sha256(data).hexdigest() == digest


@pytest.mark.parametrize("kind", sorted(INPUTS))
def test_lines_bytes(kind, monkeypatch):
    assert run(["lines", "--kind", kind], INPUTS[kind], monkeypatch) == (
        0, LINES_TEXT[kind]
    )
    assert run(
        ["lines", "--kind", kind, "--format", "jsonl"], INPUTS[kind], monkeypatch
    ) == (0, LINES_JSONL[kind])


@pytest.mark.parametrize("kind, fmt", sorted(LARGE_LINES))
def test_large_lines_bytes(kind, fmt, monkeypatch):
    text, size, digest = LARGE_LINES[kind, fmt]
    code, out = run(["lines", "--kind", kind, "--format", fmt], text, monkeypatch)
    assert code == 0
    data = out.encode()
    assert len(data) == size
    assert hashlib.sha256(data).hexdigest() == digest


@pytest.mark.parametrize("kind", sorted(VERIFY_TEXT))
def test_verify_bytes(kind, monkeypatch):
    assert run(["verify", "--kind", kind], INPUTS[kind], monkeypatch) == (
        0, VERIFY_TEXT[kind]
    )
    assert run(
        ["verify", "--kind", kind, "--format", "jsonl"], INPUTS[kind], monkeypatch
    ) == (0, VERIFY_JSONL[kind])


@pytest.mark.parametrize(
    "kind, text, message",
    [
        ("hypergraph", HYPERGRAPH,
         "no line-count theorem covers general 3-uniform hypergraphs; "
         "verify supports graph, poset, and metric"),
        ("graph", "2 1\n0 1\n", "graph verification needs n >= 3"),
        ("poset", "3 0\n",
         "poset verification needs height >= 2 (an antichain has no bound)"),
    ],
)
def test_verify_rejection_bytes(kind, text, message, monkeypatch, capsys):
    assert run(["verify", "--kind", kind], text, monkeypatch) == (1, "")
    assert capsys.readouterr().err == f"error: {message}\n"


def test_construct_bytes(monkeypatch):
    assert run(["construct"], POSET, monkeypatch) == (0, CONSTRUCT_TEXT)
    assert run(["construct", "--format", "jsonl"], POSET, monkeypatch) == (
        0, CONSTRUCT_JSONL
    )


def test_metric_equality_case_is_not_held_to_a_shape(monkeypatch):
    # Metrics have no extremal characterization: an equality case off
    # every shape is still a pass.
    text = "4\n0 1 1 2\n1 0 2 2\n1 2 0 2\n2 2 2 0\n"
    assert run(["verify", "--kind", "metric"], text, monkeypatch) == (
        0,
        "kind metric n 4\n"
        "lines 4 bound 4 universal no\n"
        "equality case: yes\n"
        "extremal shape: no\n"
        "result: ok\n",
    )
