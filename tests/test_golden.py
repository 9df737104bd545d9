"""Golden bytes: the exact output of the command-line client.

The sweep streams are pinned by length and SHA-256, once per worker
count; the per-instance commands are pinned verbatim on the README
examples.  Any refactor must leave every one of these bytes alone.
"""

import hashlib
import importlib.util
import io
import random
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest

from linesys import BetweennessRelation
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


def random_metric_text(n, seed):
    """Shortest paths over random rational weights on every pair: a
    metric with fractional distances, so no graph's hop-count metric."""
    rng = random.Random(seed)
    dist = [[Fraction(0)] * n for _ in range(n)]
    for a, b in combinations(range(n), 2):
        dist[a][b] = dist[b][a] = Fraction(rng.randint(2, 12), rng.randint(1, 3))
    for k in range(n):
        for i in range(n):
            for j in range(n):
                dist[i][j] = min(dist[i][j], dist[i][k] + dist[k][j])
    return f"{n}\n" + "".join(" ".join(map(str, row)) + "\n" for row in dist)


def random_hypergraph_text(n, m, seed):
    """m random 3-edges on n points."""
    rng = random.Random(seed)
    edges = [rng.sample(range(n), 3) for _ in range(m)]
    return f"{n} {m}\n" + "".join("%d %d %d\n" % tuple(edge) for edge in edges)


SEEDED_METRIC = random_metric_text(10, 7)
SEEDED_HYPERGRAPH = random_hypergraph_text(20, 40, 7)


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
    ("graph", 7): (
        403_619_582,
        "703954153ea7e811b04b4d37ad8658d63ba0c9eaec69c15de12610eb64c6afba",
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

GRAPH_7_SUMMARY = (
    "kind graph n 7\n"
    "enumerated 2097152 reported 2097152 checked 2079427\n"
    "universal 17725\n"
    "violations 0\n"
    "equality cases 49\n"
    "shape matches 49\n"
    "certificate failures 0\n"
    "result: ok\n"
)

# Line systems of seeded inputs, keyed by (kind, format): the input
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
    ("metric", "text"): (
        SEEDED_METRIC,
        287,
        "63c02e215f06bf4774bd5c39e13c8023d4ca5c4a5411349dcfef8cae43c0d86c",
    ),
    ("metric", "jsonl"): (
        SEEDED_METRIC,
        1_721,
        "af9cae3efd3aa0b23daed4d4d6f90fb454682419548b3c8388f37c9156de4e4b",
    ),
    ("hypergraph", "text"): (
        SEEDED_HYPERGRAPH,
        1_070,
        "ac750f97a7620e564de0aa6e6dc815beafd47f8555d8ac1fb04f7c8bcc627e3d",
    ),
    ("hypergraph", "jsonl"): (
        SEEDED_HYPERGRAPH,
        8_159,
        "c74ae26d2b0e1882c2fd7b28fc62744243f9f9a7a5df860b5f07a236957edd75",
    ),
}

# ``lines --kind graph`` on the benchmark's seed-1 sparse graphs, keyed
# by (n, m, format): the length and SHA-256 of stdout.  Nearly every
# line is a bare pair.
SPARSE_GRAPH_LINES = {
    (300, 900, "text"): (
        325_704,
        "0b7c03f7a2d16c6e4ad79d21404fff8d0d0768e4e7b80e3bd4fe7b16126a8c27",
    ),
    (300, 900, "jsonl"): (
        2_264_659,
        "b036dd70d3f63b388367bcb3a4ecf7f86fc497467cbacc500beee31415034544",
    ),
    (1000, 3000, "text"): (
        3_885_613,
        "0cb1bbb7776a3cc55ced5baf749d73a9d80cc41b830d0fa215b0f97b072720f5",
    ),
}

# Two points: the one line is the whole ground set, whether it is a
# bare pair (no edge, no cover, no 3-edge) or a linked one.
TWO_POINTS = {
    "graph": ("2 1\n0 1\n", "2 0\n"),
    "poset": ("2 1\n0 1\n", "2 0\n"),
    "metric": ("2\n0 1\n1 0\n", "2\n0 5/2\n5/2 0\n"),
    "hypergraph": ("2 0\n",),
}
TWO_POINT_LINES = (
    "0 1\ncount 1\n",
    '{"members": [0, 1], "generators": [[0, 1]]}\n{"count": 1}\n',
)
TWO_POINT_VERIFY_JSONL = {
    ("poset", "2 1\n0 1\n"): (
        '{"structure_kind": "poset", "n": 2, "instance_id": 1, "line_count": 1, '
        '"bound": 2, "has_universal": true, "meets_bound": true, '
        '"is_equality_case": false, "extremal_shape_match": true}\n'
    ),
    ("metric", "2\n0 1\n1 0\n"): (
        '{"structure_kind": "metric", "n": 2, "instance_id": "0,1;1,0", '
        '"line_count": 1, "bound": 2, "has_universal": true, "meets_bound": true, '
        '"is_equality_case": false, "extremal_shape_match": false}\n'
    ),
}

SEEDED_METRIC_VERIFY_JSONL = (
    '{"structure_kind": "metric", "n": 10, "instance_id": '
    '"0,11/3,2,2,3,7/3,2/3,3,3/2,8/3;11/3,0,11/3,5/3,2/3,3,4,8/3,8/3,7/3;'
    '2,11/3,0,2,3,7/3,4/3,1,2,2;2,5/3,2,0,1,7/3,5/2,1,1,2/3;'
    '3,2/3,3,1,0,5/2,7/2,2,2,5/3;7/3,3,7/3,7/3,5/2,0,3,4/3,10/3,7/3;'
    '2/3,4,4/3,5/2,7/2,3,0,7/3,13/6,19/6;3,8/3,1,1,2,4/3,7/3,0,2,1;'
    '3/2,8/3,2,1,2,10/3,13/6,2,0,5/3;8/3,7/3,2,2/3,5/3,7/3,19/6,1,5/3,0", '
    '"line_count": 31, "bound": 10, "has_universal": false, "meets_bound": true, '
    '"is_equality_case": false, "extremal_shape_match": false}\n'
)

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


class DigestStream(io.TextIOBase):
    """A text stream that keeps only the length and SHA-256 of the
    UTF-8 bytes written to it, so the 400 MB graph n = 7 stream is never
    held in memory."""

    def __init__(self):
        self.size = 0
        self.sha256 = hashlib.sha256()

    def write(self, text):
        data = text.encode()
        self.size += len(data)
        self.sha256.update(data)
        return len(text)


@pytest.mark.parametrize("workers", [1, 2])
def test_graph_7_summary_bytes(workers):
    out = io.StringIO()
    assert main(["sweep", "--kind", "graph", "--n", "7", "--workers", str(workers)], out=out) == 0
    assert out.getvalue() == GRAPH_7_SUMMARY


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("kind, n", sorted(SWEEP_STREAMS))
def test_sweep_jsonl_stream_bytes(kind, n, workers):
    out = DigestStream()
    argv = ["sweep", "--kind", kind, "--n", str(n), "--format", "jsonl",
            "--workers", str(workers)]
    assert main(argv, out=out) == 0
    assert (out.size, out.sha256.hexdigest()) == SWEEP_STREAMS[kind, n]


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


@pytest.mark.parametrize("n, m, fmt", sorted(SPARSE_GRAPH_LINES))
def test_sparse_graph_lines_bytes(n, m, fmt, monkeypatch):
    text = workloads.random_graph_text(n, m, 1)
    code, out = run(["lines", "--kind", "graph", "--format", fmt], text, monkeypatch)
    assert code == 0
    data = out.encode()
    size, digest = SPARSE_GRAPH_LINES[n, m, fmt]
    assert len(data) == size
    assert hashlib.sha256(data).hexdigest() == digest
    if fmt == "text":
        assert out == workloads.oracle_lines_text(text)


@pytest.mark.parametrize(
    "kind, text", [(kind, text) for kind in TWO_POINTS for text in TWO_POINTS[kind]]
)
def test_two_point_lines_bytes(kind, text, monkeypatch):
    for fmt, expected in zip(("text", "jsonl"), TWO_POINT_LINES):
        argv = ["lines", "--kind", kind, "--format", fmt]
        assert run(argv, text, monkeypatch) == (0, expected)


@pytest.mark.parametrize("kind, text", sorted(TWO_POINT_VERIFY_JSONL))
def test_two_point_verify_finds_the_universal_line(kind, text, monkeypatch):
    expected = TWO_POINT_VERIFY_JSONL[kind, text]
    argv = ["verify", "--kind", kind, "--format", "jsonl"]
    assert run(argv, text, monkeypatch) == (0, expected)
    code, out = run(["verify", "--kind", kind], text, monkeypatch)
    assert code == 0 and "universal yes\n" in out


@pytest.mark.parametrize("kind", sorted(VERIFY_TEXT))
def test_verify_bytes(kind, monkeypatch):
    assert run(["verify", "--kind", kind], INPUTS[kind], monkeypatch) == (
        0, VERIFY_TEXT[kind]
    )
    assert run(
        ["verify", "--kind", kind, "--format", "jsonl"], INPUTS[kind], monkeypatch
    ) == (0, VERIFY_JSONL[kind])


def test_seeded_metric_verify_bytes(monkeypatch):
    assert "/" in SEEDED_METRIC  # fractional, so not a graph metric
    assert run(
        ["verify", "--kind", "metric", "--format", "jsonl"], SEEDED_METRIC, monkeypatch
    ) == (0, SEEDED_METRIC_VERIFY_JSONL)


@pytest.fixture
def no_relation(monkeypatch):
    """Building a BetweennessRelation, by either constructor, fails the test."""
    def refuse(*args, **kwargs):
        raise AssertionError("a production path built a BetweennessRelation")

    monkeypatch.setattr(BetweennessRelation, "__init__", refuse)
    monkeypatch.setattr(BetweennessRelation, "_from_matrices", classmethod(refuse))


@pytest.mark.parametrize("kind", sorted(INPUTS))
def test_lines_and_verify_build_no_relation(kind, no_relation, monkeypatch):
    # The generic evaluator is the tests' oracle only: every input kind
    # gives its pinned bytes with both relation constructors disabled.
    test_lines_bytes(kind, monkeypatch)
    for fmt in ("text", "jsonl"):
        if (kind, fmt) in LARGE_LINES:
            test_large_lines_bytes(kind, fmt, monkeypatch)
    if kind in VERIFY_TEXT:
        test_verify_bytes(kind, monkeypatch)
    if kind == "metric":
        test_seeded_metric_verify_bytes(monkeypatch)
        test_metric_equality_case_is_not_held_to_a_shape(monkeypatch)


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


# construct on more posets: K3,3 as an order (two 3-point levels, six
# layer lines), an isolated point beside a 2-chain (a split step), and
# a 60-point chain of two plus an antichain, pinned by length and
# SHA-256.
K33_ORDER = "6 9\n" + "".join(f"{a} {b}\n" for a in range(3) for b in range(3, 6))
SPLIT_POSET = "3 1\n0 1\n"
CONSTRUCT_GOLDEN = {
    (K33_ORDER, "text"): (
        "chain: 0 3\n"
        "layer line: 0 1\n"
        "layer line: 0 2\n"
        "layer line: 1 2\n"
        "layer line: 3 4\n"
        "layer line: 3 5\n"
        "layer line: 4 5\n"
        "iteration 1 step 2b window 1..2 outside 1\n"
        "  line: 0 1\n"
        "  line: 1 3\n"
        "iteration 2 step 1 window 2..2\n"
        "  line: 0 3\n"
        "distinct 8 >= bound 8\n"
    ),
    (K33_ORDER, "jsonl"): (
        '{"chain": [0, 3], "layer_lines": '
        '[[0, 1], [0, 2], [1, 2], [3, 4], [3, 5], [4, 5]]}\n'
        '{"iteration": 1, "step": "2b", "bottom": 1, "top": 2, "probe": 1, '
        '"lines": [[0, 1], [1, 3]]}\n'
        '{"iteration": 2, "step": "1", "bottom": 2, "top": 2, "probe": null, '
        '"lines": [[0, 3]]}\n'
        '{"distinct": 8, "bound": 8}\n'
    ),
    (SPLIT_POSET, "text"): (
        "chain: 0 1\n"
        "layer line: 0 2\n"
        "iteration 1 step 2a window 1..2 outside 2\n"
        "  line: 0 2\n"
        "  line: 1 2\n"
        "  line: 0 1\n"
        "distinct 3 >= bound 3\n"
    ),
    (SPLIT_POSET, "jsonl"): (
        '{"chain": [0, 1], "layer_lines": [[0, 2]]}\n'
        '{"iteration": 1, "step": "2a", "bottom": 1, "top": 2, "probe": 2, '
        '"lines": [[0, 2], [1, 2], [0, 1]]}\n'
        '{"distinct": 3, "bound": 3}\n'
    ),
}
CONSTRUCT_LARGE = {
    "text": (
        30_392,
        "0928ecc02935735932ae3a1e085362ed602324320b2322df41c2896955823184",
    ),
    "jsonl": (
        16_757,
        "d0e2cb5338358574dd1f5c927db4c97cb37d774330ce2ccd3ef2f91ece47d9a2",
    ),
}


@pytest.mark.parametrize(
    "text, fmt", list(CONSTRUCT_GOLDEN),
    ids=["k33-text", "k33-jsonl", "split-text", "split-jsonl"],
)
def test_construct_golden_bytes(text, fmt, monkeypatch, capsys):
    assert run(["construct", "--format", fmt], text, monkeypatch) == (
        0, CONSTRUCT_GOLDEN[text, fmt]
    )
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("fmt", sorted(CONSTRUCT_LARGE))
def test_construct_large_bytes(fmt, monkeypatch, capsys):
    code, out = run(["construct", "--format", fmt], "60 1\n0 1\n", monkeypatch)
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert (code, len(out), digest) == (0, *CONSTRUCT_LARGE[fmt])
    assert capsys.readouterr().err == ""


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
