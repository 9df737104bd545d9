"""Compare the end-to-end benchmark of two checkouts, parent against change.

Usage: python tools/ab.py PARENT CHANGE [--workload W] [--pairs 10] [--seconds S]

PARENT and CHANGE are checkout directories, each holding ``src/`` and
``perfbench/``; make them cache-free with ``git archive`` (see README),
since stale bytecode in a working tree skews ``setup_s``.  Pair i runs

    perfbench/run.py --workload W --seed i+1 --seconds S --trace 0

in both directories, one child at a time, with PYTHONDONTWRITEBYTECODE=1,
the parent first on even pairs and the change first on odd ones.  Without
``--seconds`` run.py's own default applies.  Without ``--workload``
(which may be repeated) every workload of CHANGE's BENCHMARK.json runs.

For each end-to-end metric run.py prints, it prints the parent median
with its quartiles, the change median, the relative change and in how
many pairs the change read lower.  It exits 1 as soon as a run fails,
prints ``correct: false`` or counts failed calls.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(checkout: Path, workload: str, seed: int, seconds: float | None) -> dict:
    """The metrics of one run.py child in ``checkout``; exits 1 when the
    run fails or is not correct."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--trace", "0"]
    if seconds is not None:
        argv += ["--seconds", str(seconds)]
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run(argv, cwd=checkout, env=env, capture_output=True, text=True)
    results = [line for line in proc.stdout.splitlines() if line.startswith("{")]
    result = json.loads(results[-1]) if results else None
    if (
        proc.returncode != 0 or result is None
        or not result["correct"] or result["failed"] > 0
    ):
        sys.stdout.write(proc.stdout[-2000:])
        sys.stderr.write(proc.stderr[-2000:])
        raise SystemExit(
            f"error: {workload} seed {seed} in {checkout} exited with "
            f"{proc.returncode}, result {json.dumps(result)}"
        )
    return {name: metric["value"] for name, metric in result["metrics"].items()}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def compare(parent: Path, change: Path, workload: str, pairs: int, seconds) -> None:
    checkouts, runs = (parent, change), ([], [])
    for i in range(pairs):
        for side in (0, 1) if i % 2 == 0 else (1, 0):
            runs[side].append(run_once(checkouts[side], workload, i + 1, seconds))
    print(f"workload {workload}: {pairs} pairs")
    print(f"  {'metric':12s} {'parent median [q1, q3]':40s} {'change median':14s} "
          f"{'change':>9s}  change lower")
    for name in runs[0][0]:
        before = [run[name] for run in runs[0]]
        after = [run[name] for run in runs[1]]
        q1, median, q3 = quartiles(before)
        new = statistics.median(after)
        relative = f"{100 * (new - median) / median:+.1f} %" if median else "n/a"
        lower = sum(a < b for a, b in zip(after, before))
        print(f"  {name:12s} {f'{median:.6g} [{q1:.6g}, {q3:.6g}]':40s} "
              f"{new:<14.6g} {relative:>9s}  {lower} of {pairs}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", action="append")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float)
    args = parser.parse_args()
    if args.pairs < 1:
        parser.error("--pairs needs at least 1")
    for checkout in (args.parent, args.change):
        if not (checkout / "perfbench" / "run.py").is_file():
            parser.error(f"no perfbench/run.py under {checkout}")
    workloads = args.workload or [
        w["name"]
        for w in json.loads((args.change / "BENCHMARK.json").read_text())["workloads"]
    ]
    for workload in workloads:
        compare(args.parent.resolve(), args.change.resolve(), workload, args.pairs,
                args.seconds)


if __name__ == "__main__":
    main()
