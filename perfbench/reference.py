"""Reference kernels: the machine's current speed, measured during a run.

On a shared host the same code runs up to 1.7x slower for minutes at a
time, because other tenants contend for the cores and memory. A run of a
few tens of seconds cannot average that out, so each run also times small
fixed kernels of the benchmark's own, interleaved with the program's ops,
and reports the program's times relative to them (run.py). The kernels
never change with the program, so a faster program shows in full.

Each kernel exercises one resource the workloads spend their time on:

- ``interp``: the bytecode interpreter, small integers, calls and dict
  lookups, as in the classifier's per-orbit loops and the exact
  big-integer arithmetic;
- ``gather``: gathering from an array larger than the per-core caches in
  an order that misses them, as in the dense convolution;
- ``search``: counter-based uniforms looked up in a sorted table, the
  arithmetic of the sampler's inverse CDF.

``NOMINAL_S`` is each kernel's median time on the baseline machine at its
usual speed; it only sets the scale, so that a scaled time reads like
milliseconds on that machine.
"""
from __future__ import annotations

import statistics
import time
from typing import Callable, Dict, List, Sequence

import numpy as np

INTERP_ROUNDS = 30_000
GATHER_SIZE = 1 << 19        # complex128 elements: 8 MB gathered, 4 MB of indices
GATHER_STRIDE = 99_991       # odd, so i -> i * stride mod size is a permutation

SEARCH_TABLE = 1024          # sorted values searched, as a CDF over |G| = 1024
SEARCH_BATCH = 1 << 13       # uniforms drawn and searched per round
SEARCH_ROUNDS = 8

NOMINAL_S = {"interp": 0.010, "gather": 0.013, "search": 0.009}
PERIOD_S = 0.3               # op time between two samples of every kernel


def _step(x: int, i: int) -> int:
    return (x * 31 + i) & 0xFFFF


def interp() -> int:
    counts: Dict[int, int] = {}
    x = 0
    for i in range(INTERP_ROUNDS):
        x = _step(x, i)
        key = x & 0xFF
        counts[key] = counts.get(key, 0) + 1
    return x + len(counts)


def make_interp() -> Callable[[], int]:
    return interp


def make_gather() -> Callable[[], complex]:
    """The arrays are allocated once, here, so that a sample times memory
    traffic only and not the allocator, whose state the program's own
    allocations change."""
    src = np.arange(GATHER_SIZE, dtype=np.complex128)
    idx = (np.arange(GATHER_SIZE, dtype=np.int64) * GATHER_STRIDE) % GATHER_SIZE
    out = np.empty_like(src)

    def gather() -> complex:
        np.take(src, idx, out=out)
        return complex(out.sum())

    return gather


def make_search() -> Callable[[], int]:
    """Counter-based uniforms looked up in a sorted table, in batches small
    enough to stay in cache: the arithmetic of an inverse-CDF sampler."""
    table = np.cumsum(np.full(SEARCH_TABLE, 1.0 / SEARCH_TABLE))
    uniforms = np.empty(SEARCH_BATCH)

    def search() -> int:
        rng = np.random.Generator(np.random.Philox(key=0))
        total = 0
        for _ in range(SEARCH_ROUNDS):
            rng.random(out=uniforms)
            total += int(np.searchsorted(table, uniforms, side="right")[-1])
        return total

    return search


# name -> factory of the kernel; a factory sets up what its kernel reuses
KERNELS: Dict[str, Callable[[], Callable[[], object]]] = {
    "interp": make_interp, "gather": make_gather, "search": make_search}


class SpeedProbe:
    """Times the named kernels after the first op and then once more per
    PERIOD_S of op time, so the samples spread over the run in proportion
    to where its time goes."""

    def __init__(self, names: Sequence[str], clock: Callable[[], float] = time.perf_counter,
                 period_s: float = PERIOD_S) -> None:
        self.names = tuple(names)
        self.kernels = {name: KERNELS[name]() for name in self.names}
        self.clock = clock
        self.period_s = period_s
        self.samples: Dict[str, List[float]] = {name: [] for name in self.names}
        self._owed_s = period_s

    def after_op(self, latency_s: float) -> None:
        self._owed_s += latency_s
        while self._owed_s >= self.period_s:
            self._owed_s -= self.period_s
            for name, kernel in self.kernels.items():
                t0 = self.clock()
                kernel()
                self.samples[name].append(self.clock() - t0)

    def slowdown(self) -> float:
        """Summed median kernel time over summed nominal time: above 1 when
        the machine runs slower than the baseline machine usually does."""
        measured = sum(statistics.median(self.samples[n]) for n in self.names)
        return measured / sum(NOMINAL_S[n] for n in self.names)
