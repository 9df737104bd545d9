"""Machine-speed reference for timings on a shared, noisy host.

On a host whose cores are shared with other tenants, the speed of the
same pure-Python code drifts by 20% or more over tens of seconds, far
more than the changes the benchmark must resolve.  Each measured call
is therefore preceded by a fixed pure-Python kernel that uses no
linesys code, and the call's time is scaled by how long the kernel
took next to it:

    reference seconds = measured seconds * REFERENCE_S / kernel seconds

Wall time and CPU time are both scaled by the kernel's CPU time, which
unlike its wall time does not count process start-up or waiting.  A
call that uses w worker processes is scaled by w copies of the kernel
run at once in w forked processes, since the cores it runs on drift
independently, taking their mean CPU time.  ``REFERENCE_S`` is about
the kernel's CPU time on an idle 2-core x86_64 host with Python 3.11,
so there reference seconds are close to measured seconds.  A change to
linesys moves the measured time and leaves the kernel alone, so it
moves the scaled time by the same share.

On such a host, 20- to 25-second windows of one call repeated gave an
interquartile range of 13-15% of the median for the measured wall time
and about 4% for the scaled time, for a serial and a 2-worker sweep.
"""

from __future__ import annotations

import json
import multiprocessing
import resource

REFERENCE_S = 0.04


def kernel() -> int:
    """Fixed work of the kind linesys does: bitmask adjacency, set
    building, tuple sorting, dict updates and JSON encoding.  It keeps
    under a few hundred kilobytes live, so it does not raise the peak
    memory of the process it runs in."""
    n = 40
    x = 12345
    adj = [0] * n
    for _ in range(160):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        a, b = x % n, (x >> 8) % n
        if a != b:
            adj[a] |= 1 << b
            adj[b] |= 1 << a
    total = 0
    for _ in range(6):
        seen = set()
        for a in range(n):
            for b in range(a + 1, n):
                mask = (1 << a) | (1 << b)
                if adj[a] >> b & 1:
                    mask |= adj[a] & adj[b]
                seen.add(mask)
        rows = sorted(tuple(i for i in range(n) if m >> i & 1) for m in seen)
        total += len(rows)
    for _ in range(10):
        counts: dict[int, int] = {}
        for i in range(2000):
            key = (i * 2654435761) & 0xFFFF
            counts[key] = counts.get(key, 0) + i
        items = sorted(counts.items())
        total += len(json.dumps(items[:200])) + sum(v & 7 for _, v in items)
    return total


def cpu_seconds(who) -> float:
    """User plus system CPU time of ``resource.RUSAGE_SELF`` or
    ``resource.RUSAGE_CHILDREN``."""
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


def kernel_seconds(processes: int = 1) -> float:
    """CPU time of the kernel per process, run here or in ``processes``
    forked processes at once."""
    if processes <= 1:
        before = cpu_seconds(resource.RUSAGE_SELF)
        kernel()
        return cpu_seconds(resource.RUSAGE_SELF) - before
    ctx = multiprocessing.get_context("fork")
    before = cpu_seconds(resource.RUSAGE_CHILDREN)
    procs = [ctx.Process(target=kernel) for _ in range(processes)]
    for proc in procs:
        proc.start()
    for proc in procs:
        proc.join()
    return (cpu_seconds(resource.RUSAGE_CHILDREN) - before) / processes
