"""The measured process: runs one workload through ``linesys.cli.main``.

    measure.py CONFIG_JSON

Untraced (``"trace": false``): one checked warm-up call, then calls
until ``seconds`` have passed, each after a run of the calibration
kernel on as many processes as the call uses.  Traced: the untraced
serial calls, the untraced calls of the configured command (when it
uses workers) and the traced serial calls share ``seconds``.  Every call's exit code, stdout
digest and stderr are checked; stdout goes to an object that hashes and
counts bytes, so disk speed stays out of the numbers.  The samples are
printed as one JSON line.
"""

import contextlib
import hashlib
import io
import json
import resource
import sys
import time
from pathlib import Path

from calibrate import cpu_seconds, kernel_seconds
from workloads import workers_of

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
import linesys.cli  # noqa: E402


class Sink:
    """The ``out`` object of ``cli.main``: hashes and counts what it gets."""

    def __init__(self):
        self._hash = hashlib.sha256()
        self.bytes = 0

    def write(self, text: str) -> int:
        data = text.encode()
        self._hash.update(data)
        self.bytes += len(data)
        return len(text)

    def hexdigest(self) -> str:
        return self._hash.hexdigest()


def run_once(argv, tracer=None) -> dict:
    sink = Sink()
    if tracer is not None:
        sink.write = tracer.wrap_call("cli.write", sink.write)
    err = io.StringIO()
    self0 = cpu_seconds(resource.RUSAGE_SELF)
    child0 = cpu_seconds(resource.RUSAGE_CHILDREN)
    start = time.perf_counter()
    with contextlib.redirect_stderr(err):
        # Looked up at call time, so a traced cli.main is the root span.
        code = linesys.cli.main(list(argv), sink)
    wall = time.perf_counter() - start
    return {
        "wall": wall,
        "self_cpu": cpu_seconds(resource.RUSAGE_SELF) - self0,
        "child_cpu": cpu_seconds(resource.RUSAGE_CHILDREN) - child0,
        "exit": code,
        "stdout_sha256": sink.hexdigest(),
        "stdout_bytes": sink.bytes,
        "stderr": err.getvalue(),
    }


class Checker:
    """Counts calls and those whose output differs from the expected."""

    KEYS = ("exit", "stdout_sha256", "stdout_bytes", "stderr")

    def __init__(self, expected):
        self.expected = expected
        self.attempted = 0
        self.failed = 0
        self.first_failure = None

    def check(self, result: dict) -> None:
        self.attempted += 1
        if self.expected is None:
            # No recorded output (tracer self-check): the first call is
            # the reference for every later one.
            self.expected = {key: result[key] for key in self.KEYS}
        wrong = [key for key in self.KEYS if result[key] != self.expected[key]]
        if wrong:
            self.failed += 1
            if self.first_failure is None:
                self.first_failure = {key: result[key] for key in wrong}


def timed_calls(argv, seconds, checker, tracer=None) -> list:
    """Call until ``seconds`` have passed (at least once); one sample each.

    Each sample holds the CPU time of the calibration kernel run just before
    the call and, with a tracer, that call's span aggregates.
    """
    samples = []
    deadline = time.perf_counter() + seconds
    while True:
        if tracer is not None:
            tracer.reset()
        kernel = kernel_seconds(workers_of(argv))
        sample = run_once(argv, tracer)
        sample["kernel"] = kernel
        checker.check(sample)
        del sample["stderr"]
        if tracer is not None:
            sample["spans"] = {
                name: [span.calls, span.self_s, span.raised]
                for name, span in tracer.spans.items()
            }
        samples.append(sample)
        if time.perf_counter() >= deadline:
            return samples


def measure(config: dict) -> dict:
    checker = Checker(config["expected"])
    checker.check(run_once(config["argv"]))  # warm-up
    seconds = config["seconds"]
    result = {}
    if not config["trace"]:
        result["timed"] = timed_calls(config["argv"], seconds, checker)
    else:
        from tracer import Tracer, site_objects

        parallel = config["workers"] > 1
        share = seconds / (3 if parallel else 2)
        result["serial"] = timed_calls(config["serial_argv"], share, checker)
        result["configured"] = (
            timed_calls(config["argv"], share, checker)
            if parallel
            else result["serial"]
        )
        before = site_objects()
        with Tracer() as tracer:
            result["traced"] = timed_calls(
                config["serial_argv"], share, checker, tracer
            )
        after = site_objects()
        result["unrestored"] = [key for key in before if after[key] is not before[key]]
    rss_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    result.update(
        attempted=checker.attempted,
        failed=checker.failed,
        first_failure=checker.first_failure,
        peak_rss_kb=rss_kb,
    )
    return result


if __name__ == "__main__":
    print(json.dumps(measure(json.loads(sys.argv[1]))))
