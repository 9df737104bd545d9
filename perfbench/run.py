"""linesys benchmark: end-to-end or per-layer metrics of its workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --seed N --trace 0|1    (every workload in turn)
    python3 perfbench/run.py --self-check

Run from the root of a checkout; the program is imported from ``src/``.
With ``--trace 0`` the run prints the end-to-end metrics, measured with
tracing off: set-up time from fresh probe processes, and wall time, CPU
time and peak memory of ``linesys.cli.main`` calls in one measured
process.  Times are in reference seconds, scaled by a calibration
kernel run next to each measurement (see calibrate.py); the measured
medians are printed too.  With ``--trace 1`` it prints the per-layer
metrics of a traced serial run plus the untraced figures they are
compared with, in measured seconds.  Every call's output is checked.
Each workload's result ends with one JSON line holding ``correct``,
``attempted``, ``failed`` and ``metrics``.

``--self-check`` runs each workload at a small size with tracing on and
off, and checks that outputs agree, that every wrapped name is restored
and that span self times account for the traced wall time.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

from calibrate import REFERENCE_S
from tracer import SPAN_NAMES
from workloads import WORKLOADS, prepare

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 11
TAIL_BEYOND = 10
MIN_ACCOUNTED = 0.9

END_TO_END = (
    ("run_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)

PER_LAYER = tuple(
    metric
    for span in SPAN_NAMES
    if span != "cli.write"
    for metric in ((f"{span}.calls", "count", "lower"), (f"{span}.self_s", "s", "lower"))
) + (
    ("cli.write_s", "s", "lower"),
    ("cli.out_bytes", "bytes", "lower"),
    ("posets.poset_betweenness.per_instance", "ratio", "lower"),
    ("metrics.connected_ratio", "ratio", "higher"),
    ("sweeps.parent_cpu_s", "s", "lower"),
    ("sweeps.worker_cpu_s", "s", "lower"),
    ("sweeps.parallel_efficiency", "ratio", "higher"),
    ("trace.run_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.accounted", "ratio", "higher"),
)


def machine_info() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "cpu": platform.machine(),
        "loadavg": os.getloadavg(),
    }


def run_child(args: list[str], timeout: float) -> str:
    """Run a helper script of the benchmark; return its last stdout line."""
    proc = subprocess.run(
        [sys.executable, *args],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-4000:])
        raise SystemExit(f"error: {args[0]} exited with {proc.returncode}")
    return lines[-1]


def measure(config: dict, seconds: float) -> dict:
    timeout = min(160.0, 60.0 + 4 * seconds)
    line = run_child([str(HERE / "measure.py"), json.dumps(config)], timeout)
    return json.loads(line)


def tail(values: list[float]) -> tuple[float, float]:
    """The highest percentile with TAIL_BEYOND samples beyond it, and its
    level; the maximum when there are too few samples."""
    ordered = sorted(values)
    rank = len(ordered) - 1 - (TAIL_BEYOND if len(ordered) > TAIL_BEYOND else 0)
    return ordered[rank], 100.0 * (rank + 1) / len(ordered)


def scaled(seconds: float, kernel: float) -> float:
    """Measured seconds in reference seconds (see calibrate.py)."""
    return seconds * REFERENCE_S / kernel


def end_to_end(config: dict, seconds: float) -> tuple[dict, dict]:
    setup = []
    for _ in range(SETUP_PROBES):
        line = run_child([str(HERE / "probe.py"), *config["argv"]], 60.0)
        setup.append(tuple(map(float, line.split())))
    result = measure(config, seconds)
    samples = result["timed"]
    runs = [scaled(s["wall"], s["kernel"]) for s in samples]
    tail_value, level = tail(runs)
    metrics = {
        "run_s": statistics.median(runs),
        "cpu_s": statistics.median(
            scaled(s["self_cpu"] + s["child_cpu"], s["kernel"]) for s in samples
        ),
        "peak_rss_mb": result["peak_rss_kb"] / 1024,
        "setup_s": statistics.median(scaled(*probe) for probe in setup),
    }
    # The tail is printed, not returned: with calls near one second a
    # run holds only a few dozen samples, so its tail is near the median.
    print(
        f"run_s: median {metrics['run_s']:.6g} s, p{level:.0f} {tail_value:.6g} s "
        f"over {len(runs)} calls; as measured, median "
        f"{statistics.median(s['wall'] for s in samples):.6g} s, kernel "
        f"{statistics.median(s['kernel'] for s in samples):.6g} s "
        f"against {REFERENCE_S} s"
    )
    print(
        f"setup_s: over {len(setup)} probe processes; as measured, median "
        f"{statistics.median(p[0] for p in setup):.6g} s"
    )
    return metrics, result


def per_layer(config: dict, seconds: float) -> tuple[dict, dict]:
    result = measure(config, seconds)
    traced = result["traced"]

    def span_median(name: str, field: int) -> float:
        return statistics.median(s["spans"][name][field] for s in traced)

    metrics = {}
    for span in SPAN_NAMES:
        if span != "cli.write":
            metrics[f"{span}.calls"] = span_median(span, 0)
            metrics[f"{span}.self_s"] = span_median(span, 1)
    metrics["cli.write_s"] = span_median("cli.write", 1)
    metrics["cli.out_bytes"] = traced[0]["stdout_bytes"]
    reported = config["reported"]
    metrics["posets.poset_betweenness.per_instance"] = (
        metrics["posets.poset_betweenness.calls"] / reported if reported else 0.0
    )
    tried = metrics["metrics.graph_shortest_path_metric.calls"]
    failed = span_median("metrics.graph_shortest_path_metric", 2)
    metrics["metrics.connected_ratio"] = (tried - failed) / tried if tried else 0.0

    workers = config["workers"]
    configured = result["configured"]
    metrics["sweeps.parent_cpu_s"] = statistics.median(s["self_cpu"] for s in configured)
    metrics["sweeps.worker_cpu_s"] = statistics.median(s["child_cpu"] for s in configured)
    # A serial sweep runs in the parent, which is then its only worker.
    metrics["sweeps.parallel_efficiency"] = statistics.median(
        (s["child_cpu"] if workers > 1 else s["self_cpu"]) / (workers * s["wall"])
        for s in configured
    )
    traced_wall = statistics.median(s["wall"] for s in traced)
    metrics["trace.run_s"] = traced_wall
    metrics["trace.overhead_s"] = traced_wall - statistics.median(
        s["wall"] for s in result["serial"]
    )
    metrics["trace.accounted"] = statistics.median(
        sum(v[1] for v in s["spans"].values()) / s["wall"] for s in traced
    )
    print(
        f"{len(traced)} traced serial calls; tracing overhead "
        f"{metrics['trace.overhead_s']:.4f} s per call"
    )
    if result["unrestored"]:
        print(f"not restored after tracing: {result['unrestored']}")
    return metrics, result


def tracer_ok(metrics: dict, result: dict) -> bool:
    return not result["unrestored"] and metrics["trace.accounted"] >= MIN_ACCOUNTED


def run(args, workload: str) -> None:
    print("machine: " + json.dumps(machine_info()))
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as work:
        config = prepare(workload, args.seed, Path(work))
        config.update(seconds=args.seconds, trace=bool(args.trace))
        if args.trace:
            metrics, result = per_layer(config, args.seconds)
            units = {name: unit for name, unit, _ in PER_LAYER}
        else:
            metrics, result = end_to_end(config, args.seconds)
            units = dict(END_TO_END)
    correct = result["failed"] == 0 and (not args.trace or tracer_ok(metrics, result))
    print(
        f"workload {workload} seed {args.seed}: error_rate "
        f"{result['failed'] / result['attempted']:g} "
        f"({result['failed']} of {result['attempted']} calls)"
    )
    if result["first_failure"] is not None:
        print("first wrong output: " + json.dumps(result["first_failure"])[:2000])
    for name, value in metrics.items():
        print(f"  {name:45s} {value:.6g} {units[name]}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {
                    name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()
                },
            }
        )
    )


def self_check() -> bool:
    ok = True
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as work:
        for name in WORKLOADS:
            config = prepare(name, 1, Path(work), small=True)
            config.update(seconds=0, trace=True)
            metrics, result = per_layer(config, 0)
            passed = result["failed"] == 0 and tracer_ok(metrics, result)
            ok &= passed
            print(
                f"{'ok' if passed else 'FAIL'} {name}: {result['attempted']} calls, "
                f"{result['failed']} differ, accounted {metrics['trace.accounted']:.3f}"
            )
    spec_path = ROOT / "BENCHMARK.json"
    if spec_path.exists():
        spec = json.loads(spec_path.read_text())
        declared = (
            [w["name"] for w in spec["workloads"]],
            [(m["name"], m["unit"]) for m in spec["end_to_end"]],
            [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]],
        )
        emitted = (
            list(WORKLOADS),
            list(END_TO_END),
            [tuple(m) for m in PER_LAYER],
        )
        if declared != emitted:
            ok = False
            print("FAIL BENCHMARK.json does not list the workloads and metrics run.py emits")
    return ok


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args()
    if not (ROOT / "src" / "linesys" / "cli.py").is_file():
        raise SystemExit(f"error: no linesys sources under {ROOT / 'src'}")
    if args.self_check:
        raise SystemExit(0 if self_check() else 1)
    for workload in [args.workload] if args.workload else list(WORKLOADS):
        run(args, workload)


if __name__ == "__main__":
    main()
