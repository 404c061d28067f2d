"""Closed-loop timing, outcome accounting and the run environment.

One caller runs the workload's ops back to back, so the next op starts only
after the previous one returned. Each op's output is checked right after it
returns; the check is not part of the op's latency.
"""
from __future__ import annotations

import ctypes
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

OK = "ok"
FAILED = "failed"   # the op raised, or the program reported that it failed
WRONG = "wrong"     # the output contradicts an oracle or a frozen value

P95_MIN_SAMPLES = 200   # so that at least ten samples lie beyond the 95th percentile
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@dataclass
class Op:
    """One top-level call into the program and the check of its output.

    ``check(output)`` returns (status, reason) with status OK, FAILED or
    WRONG. ``group`` is the motion group the op works on, if any.
    """

    label: str
    call: Callable[[], object]
    check: Callable[[object], Tuple[str, str]]
    group: object = None


@dataclass
class Outcome:
    label: str
    latency_s: float
    status: str
    reason: str


def run_op(op: Op) -> Outcome:
    t0 = time.perf_counter()
    try:
        out = op.call()
    except Exception as exc:  # op boundary: count the failure and keep measuring
        return Outcome(op.label, time.perf_counter() - t0, FAILED, f"{type(exc).__name__}: {exc}")
    latency = time.perf_counter() - t0
    status, reason = op.check(out)
    return Outcome(op.label, latency, status, reason)


def run_pass(ops: List[Op], on_op: Optional[Callable[[str], None]] = None) -> List[Outcome]:
    """Every op once, in order."""
    out = []
    for op in ops:
        if on_op is not None:
            on_op(op.label)
        out.append(run_op(op))
    return out


def timed_passes(ops: List[Op], seconds: float,
                 after_op: Optional[Callable[[float], None]] = None) -> Tuple[List[Outcome], int]:
    """Whole passes over ops, calling ``after_op(latency_s)`` after each op.
    A further pass starts only while the time elapsed in this phase plus
    the longest pass so far stays within ``seconds``; the first pass always
    runs. Whole passes keep the mix of ops the same in every run, whatever
    the machine's speed."""
    outcomes: List[Outcome] = []
    start = time.perf_counter()
    longest = 0.0
    passes = 0
    while passes == 0 or time.perf_counter() - start + longest <= seconds:
        pass_start = time.perf_counter()
        for op in ops:
            outcomes.append(run_op(op))
            if after_op is not None:
                after_op(outcomes[-1].latency_s)
        longest = max(longest, time.perf_counter() - pass_start)
        passes += 1
    return outcomes, passes


def latency_summary(latencies_s: List[float]) -> dict:
    """Median latency, and the 95th percentile only when at least
    P95_MIN_SAMPLES samples exist; it is omitted, never reported as 0."""
    ms = [v * 1e3 for v in latencies_s]
    out = {"op_p50_ms": statistics.median(ms), "samples": len(ms)}
    if len(ms) >= P95_MIN_SAMPLES:
        out["op_p95_ms"] = statistics.quantiles(ms, n=20, method="inclusive")[-1]
    return out


def peak_rss_mb() -> float:
    """ru_maxrss of this process (kilobytes on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def l3_bytes() -> Optional[int]:
    """Last-level cache size from sysconf(_SC_LEVEL3_CACHE_SIZE), if known."""
    try:
        libc = ctypes.CDLL(None)
        libc.sysconf.restype = ctypes.c_long
        size = libc.sysconf(194)  # _SC_LEVEL3_CACHE_SIZE in glibc
    except (OSError, AttributeError):
        return None
    return size if size > 0 else None


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "l3_bytes": l3_bytes(),
        "platform": sys.platform,
    }
