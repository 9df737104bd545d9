"""Workload table, seeded inputs and expected outputs.

``workloads.json`` holds, per workload, the command line handed to
``linesys.cli.main``, why the workload was chosen, the layers it loads
and, for the exhaustive sweeps, the expected exit code, stdout digest
and stderr recorded from the program.  The sweeps take no input, so the
seed varies only ``lines-sparse``, whose expected output is rebuilt for
every seed by an independent oracle.
"""

from __future__ import annotations

import hashlib
import json
import random
from math import comb
from pathlib import Path

SPEC = json.loads((Path(__file__).resolve().parent / "workloads.json").read_text())
WORKLOADS = SPEC["workloads"]
INPUT_MARK = "{input}"


def random_graph_text(n: int, m: int, seed: int) -> str:
    """A uniform random simple graph with n vertices and m edges, in the
    ``n m`` header plus edge-list format of ``linesys lines``."""
    rng = random.Random(seed)
    pairs = rng.sample(range(comb(n, 2)), m)
    edges = []
    for index in sorted(pairs):
        # Lexicographic pair number -> pair (a, b) with a < b.
        a = 0
        while index >= n - 1 - a:
            index -= n - 1 - a
            a += 1
        edges.append((a, a + 1 + index))
    rng.shuffle(edges)
    return f"{n} {m}\n" + "".join(f"{a} {b}\n" for a, b in edges)


def oracle_lines_text(graph_text: str) -> str:
    """Expected ``lines --kind graph`` output, computed without linesys.

    The line of a non-edge is the bare pair; the line of an edge ab is
    {a, b} plus the common neighbours of a and b.  Rows are the distinct
    lines as ascending member lists, sorted as tuples, then ``count N``.
    """
    tokens = graph_text.split()
    n, m = int(tokens[0]), int(tokens[1])
    ends = list(map(int, tokens[2 : 2 + 2 * m]))
    neighbours = [set() for _ in range(n)]
    for a, b in zip(ends[::2], ends[1::2]):
        neighbours[a].add(b)
        neighbours[b].add(a)
    lines = set()
    for a in range(n):
        for b in range(a + 1, n):
            if b in neighbours[a]:
                lines.add(tuple(sorted({a, b} | (neighbours[a] & neighbours[b]))))
            else:
                lines.add((a, b))
    rows = [" ".join(map(str, line)) for line in sorted(lines)]
    rows.append(f"count {len(lines)}")
    return "\n".join(rows) + "\n"


def workers_of(argv: list[str]) -> int:
    return int(argv[argv.index("--workers") + 1]) if "--workers" in argv else 1


def serial_argv(argv: list[str]) -> list[str]:
    """The same command with one worker, for traced runs."""
    if "--workers" not in argv:
        return list(argv)
    at = argv.index("--workers") + 1
    return argv[:at] + ["1"] + argv[at + 1 :]


def _digest(data: bytes) -> dict:
    return {"stdout_sha256": hashlib.sha256(data).hexdigest(), "stdout_bytes": len(data)}


def _digest_stdout(expected: dict | None) -> dict | None:
    """Recorded text-mode output is kept readable; the check compares digests."""
    if expected is None or "stdout" not in expected:
        return expected
    rest = {key: value for key, value in expected.items() if key != "stdout"}
    return {**rest, **_digest(expected["stdout"].encode())}


def prepare(name: str, seed: int, workdir: Path, small: bool = False) -> dict:
    """Write the workload's input under ``workdir`` and return the
    configuration of the measured process.

    ``small`` selects the reduced size of the tracer self-check; its
    sweeps have no recorded output, so ``expected`` is None there and
    the measured process compares every run with its first one.
    """
    spec = WORKLOADS[name]
    argv = list(spec["small_argv"] if small and "small_argv" in spec else spec["argv"])
    expected = None if small else _digest_stdout(spec.get("expected"))
    if "graph" in spec:
        size = spec["small_graph" if small else "graph"]
        text = random_graph_text(size["n"], size["m"], seed)
        path = workdir / f"{name}-{seed}.txt"
        path.write_text(text)
        argv = [str(path) if arg == INPUT_MARK else arg for arg in argv]
        expected = {
            "exit": 0,
            "stderr": "",
            **_digest(oracle_lines_text(text).encode()),
        }
    return {
        "argv": argv,
        "serial_argv": serial_argv(argv),
        "workers": workers_of(argv),
        "expected": expected,
        "reported": None if small else spec.get("reported"),
    }
