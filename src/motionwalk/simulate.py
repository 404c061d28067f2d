"""Monte Carlo sampling of the random walk and empirical decay to uniform.

Every entry point takes the measure first and reads its group from it:
sample_path(mu, steps, trials, seed), empirical_distributions(mu, ns,
trials, seed) and exact_powers(mu, ns). Exact powers are always available
as ground truth; the sampler exists to exercise the probabilistic path
and as an independent statistical check on the spectral classifiers.
Trials draw from a generator that jumps ahead exactly, so a fixed seed
reproduces the histogram bit for bit.

The walk is step-major: step s draws one 64-bit word per trial, the block
[s*trials, (s+1)*trials) of the seed's stream, maps it to an atom of the
measure by inverse CDF over the atoms only, and steps x -> x * atom
through the (|G|, #atoms) table of right products by the atoms. The dense
|G| x |G| multiplication table is never built. A walk of n steps is
therefore a prefix of every longer walk with the same seed, and one walk
yields the histogram at every requested n. Memory beyond the (|G|,
#atoms) table is O(trials): the trials x steps words are never
materialised, and a slice's scratch is one block of TRIAL_BLOCK trials.

The trials are walked in equal contiguous slices, one per CPU the process
may run on (WORKERS), each on its own thread with its own positions,
scratch and PCG64DXSM generator; no slice is made of fewer than
MIN_SLICE trials, so a small walk runs on the calling thread alone.
Before each step the slice [lo, hi) seeks its generator to stream
position step * trials + lo. The generator is a 128-bit linear
congruential state with a permuted output (O'Neill, PCG: A Family of
Simple Fast Space-Efficient Statistically Good Algorithms for Random
Number Generation, 2014), and advance(d) jumps that state d words ahead
exactly in O(log d) multiplications, so a seek is one advance over the
words the other slices draw, and each slice reads exactly the words a
single pass over all trials would. The slices count their positions at
the wanted steps as integers and the counts are summed, so every
histogram and every final position is the same bit for bit at any number
of slices. There is no setting for the number of threads.

The atom a word w draws is defined as searchsorted(cdf, u, side="right")
over the atoms' CDF, for the uniform u = (w >> 11) 2^-53 in [0, 1) that
numpy's Generator.random forms from the same word. The walk reads that
search through a guide table (the indexed search of Chen and Asau, 1974;
Devroye, Non-Uniform Random Variate Generation, 1986, ch. III): the top 12
bits of w, w >> 52 = floor(u * GUIDE_SIZE), name one of GUIDE_SIZE equal
buckets, a bucket that no CDF boundary cuts names its atom outright, and
only the words in a cut bucket form u and are searched. So every draw is
the search's own on Generator.random's uniform, bit for bit.

The exact powers square mu's Fourier blocks, Lambda_alpha(mu^n) =
Lambda_alpha(mu)^n, on the classifier's chain (reps._dyadic_powers), and
each is put back on the probability simplex (real part, clipped at 0,
unit mass), so roundoff never leaves a measure that is not a probability.
"""
from __future__ import annotations

import numbers
import operator
import os
from concurrent.futures import ThreadPoolExecutor
from functools import partial
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .groups import MotionGroup, products
from .measures import GroupMeasure, delta, from_weights, require_probability
from .reps import _blocks, _dyadic_powers, _measure_of_blocks

# buckets of the guide table, named by a word's top 12 bits
GUIDE_SIZE = 1 << 12
# trials a walk step handles per pass: two scratch arrays of this length
# and the step's words (768 KB) instead of three of the trials' length
TRIAL_BLOCK = 1 << 15
# slices a walk splits its trials into: one per CPU the process may run on
WORKERS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
    else os.cpu_count() or 1
# fewest trials a slice takes: every numpy call of a step hands the GIL
# between the threads, which small slices do not repay. Two slices of
# 2^15, 2^14, 2^13 and 2^12 trials walked 1.8, 1.24, 1.02 and 0.65x as
# fast as one thread (one sweep; three sweeps of the previous generator
# read 1.1-1.9, 0.93-1.5, 0.77-1.2 and 0.5-0.9x; 2-vCPU x86-64 Xeon;
# BENCH_sampler.json, "floor")
MIN_SLICE = 1 << 14

__all__ = [
    "sample_path",
    "empirical_distributions",
    "exact_powers",
    "tv_to_uniform",
]


def _steps(ns: Sequence[int]) -> List[int]:
    """ns as ints, read through operator.index (TypeError on a float):
    nonempty and each >= 0, or ValueError."""
    ns = [operator.index(n) for n in ns]
    if len(ns) == 0 or min(ns) < 0:
        raise ValueError(f"need a nonempty list of steps >= 0, got {ns}")
    return ns


def _atoms(mu: GroupMeasure) -> Tuple[np.ndarray, np.ndarray]:
    """(atoms, cdf): element atoms[searchsorted(cdf, u, side="right")] is
    the increment for a uniform u in [0, 1). That search is the definition
    of a draw; the walk reads it through a guide table (_guide_table,
    _lookup). cdf is the cumsum of the weights clipped at 0, taken over the
    nonzero ones (adding a 0 is exact, so it is the search over every
    element), sealed at 1 at its last entry, so roundoff in the total never
    draws an element of weight 0, and kept where it rises, the only places
    a search stops. (A total just above 1 leaves entries above 1 before the
    seal; every u < 1 still sees cdf > u switch from false to true exactly
    once, which is all the search needs.)"""
    w = np.clip(np.real(mu.weights), 0.0, None)
    nonzero = np.flatnonzero(w)
    cdf = np.cumsum(w[nonzero])
    cdf[-1] = 1.0
    rises = np.diff(cdf, prepend=0.0) > 0
    return nonzero[rises], cdf[rises]


def _guide_table(cdf: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(cdf * GUIDE_SIZE, guide) for a nondecreasing cdf whose last entry
    is at least 1. guide[b] is the one index searchsorted(cdf, u,
    side="right") takes for every u * GUIDE_SIZE in [b, b + 1), and -1 when
    a boundary of the scaled cdf falls strictly inside that bucket: the
    entries at or below b and the entries below b + 1 then differ in
    number."""
    scaled = cdf * GUIDE_SIZE
    edges = np.arange(GUIDE_SIZE + 1, dtype=np.float64)
    lo = np.searchsorted(scaled, edges[:-1], side="right")
    hi = np.searchsorted(scaled, edges[1:], side="left")
    return scaled, np.where(lo == hi, lo, -1)


def _lookup(scaled: np.ndarray, guide: np.ndarray, raw: np.ndarray,
            bucket: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out = searchsorted(cdf, u, side="right") for the uniforms u =
    (raw >> 11) 2^-53 of the 64-bit words raw, through _guide_table(cdf) =
    (scaled, guide); bucket is uint64 scratch of raw's length. The bucket
    is a word's top 12 bits, floor(u * GUIDE_SIZE); only the words in a
    cut bucket form u, and are searched on the scaled cdf, which orders
    them as the cdf does."""
    np.right_shift(raw, 52, out=bucket)  # 64 - log2(GUIDE_SIZE)
    # every index is below GUIDE_SIZE, so no bounds check and no buffered out
    np.take(guide, bucket.view(np.intp), out=out, mode="clip")
    cut = np.flatnonzero(out < 0)
    if cut.size:
        # (raw >> 11) < 2^53 converts exactly, and 2^-53 * GUIDE_SIZE is exact
        u = (raw[cut] >> 11) * (GUIDE_SIZE / (1 << 53))
        out[cut] = np.searchsorted(scaled, u, side="right")
    return out


def _walk(mu: GroupMeasure, ns: Sequence[int], trials: int,
          seed: int) -> Tuple[Dict[int, np.ndarray], np.ndarray]:
    """(counts, final) of one walk of max(ns) steps: counts[n] is the
    integer histogram of X_n over the trials for each distinct n in ns,
    final the position index of X_max(ns) per trial. Every argument is
    checked before any table is built. The trials are walked in slices
    (_slices), each on its own thread."""
    require_probability(mu)
    ns = _steps(ns)
    # numpy's SeedSequence, which seeds the stream, reads a bool as 0 or 1
    # and would raise TypeError on a float only once the tables are built;
    # [0, 2^128) is the range the CLI accepts
    if isinstance(seed, bool) or not isinstance(seed, numbers.Integral) \
            or not 0 <= seed < 1 << 128:
        raise ValueError(f"need an integer seed in [0, 2^128), got {seed!r}")
    # an int, so that the stream positions the slices seek to are ints
    trials = operator.index(trials)
    if trials < 1:
        raise ValueError(f"need trials >= 1, got {trials}")
    g = mu.group
    atoms, cdf = _atoms(mu)
    scaled, guide = _guide_table(cdf)
    # x is held as the row offset x * #atoms into the flat table, whose
    # entries are row offsets too: one add and one gather per step
    k = len(atoms)
    table = products(g, np.arange(g.size)[:, None], atoms).astype(np.intp).ravel() * k
    x = np.zeros(trials, dtype=np.intp)
    wanted = sorted(set(ns))
    walk = partial(_walk_slice, scaled, guide, table, k, g.size, wanted, trials, seed, x)
    bounds = _slices(trials)
    if len(bounds) == 2:
        counts = [walk(0, trials)]
    else:
        with ThreadPoolExecutor(len(bounds) - 1) as pool:
            counts = list(pool.map(walk, bounds[:-1], bounds[1:]))
    return {n: np.sum([c[i] for c in counts], axis=0) for i, n in enumerate(wanted)}, x


def _slices(trials: int) -> List[int]:
    """Bounds of the equal contiguous slices the trials are walked in: one
    per CPU, but no slice of fewer than MIN_SLICE trials."""
    count = max(1, min(WORKERS, trials // MIN_SLICE))
    return [trials * i // count for i in range(count + 1)]


def _walk_slice(scaled: np.ndarray, guide: np.ndarray, table: np.ndarray, k: int, size: int,
                wanted: List[int], trials: int, seed: int, x: np.ndarray, lo: int,
                hi: int) -> List[np.ndarray]:
    """Walk trials [lo, hi) of the row offsets x in place up to step
    wanted[-1], from its own generator on the seed's stream, laid out for
    a walk of trials trials; the integer histogram of the positions at each
    step of wanted, and the positions themselves in x at the end."""
    bits = np.random.PCG64DXSM(seed)
    # a step runs over blocks of TRIAL_BLOCK trials with one block of
    # scratch, so only the positions grow with trials; the blocks draw the
    # slice's words in stream order, the same as one draw of all of them
    width = min(hi - lo, TRIAL_BLOCK)
    bucket, row = np.empty(width, np.uint64), np.empty(width, np.intp)
    blocks = []
    for start in range(lo, hi, width):
        xs = x[start:min(start + width, hi)]
        blocks.append((xs, bucket[:len(xs)], row[:len(xs)]))
    counts, targets, steps = [], set(wanted), wanted[-1]
    # the stream position of the slice's next word
    drawn = 0
    for step in range(steps + 1):
        if step in targets:
            hist = np.zeros(size, dtype=np.intp)
            for xs, _, rs in blocks:
                hist += np.bincount(np.floor_divide(xs, k, out=rs), minlength=size)
            counts.append(hist)
        if step == steps:
            break
        # the slice's words of this step start at stream position
        # step * trials + lo, never behind the words it has drawn
        at = step * trials + lo
        bits.advance(at - drawn)
        drawn = at + hi - lo
        for xs, bs, rs in blocks:
            np.add(_lookup(scaled, guide, bits.random_raw(len(xs)), bs, rs), xs, out=rs)
            np.take(table, rs, out=xs, mode="clip")
    np.floor_divide(x[lo:hi], k, out=x[lo:hi])
    return counts


def sample_path(mu: GroupMeasure, steps: int, trials: int, seed: int) -> np.ndarray:
    """Final position index of X_steps = xi_1 xi_2 ... xi_steps per trial,
    with increments drawn i.i.d. from mu by inverse CDF (_atoms)."""
    return _walk(mu, [steps], trials, seed)[1]


def empirical_distributions(mu: GroupMeasure, ns: Sequence[int], trials: int,
                            seed: int) -> List[GroupMeasure]:
    """Histograms of X_n, normalized to probabilities, one per entry of
    ns and in its order, all read from one walk of max(ns) steps. The
    histogram at n equals empirical_distributions(mu, [n], trials, seed)
    bit for bit."""
    counts, _ = _walk(mu, ns, trials, seed)
    hist = {n: from_weights(mu.group, c / trials) for n, c in counts.items()}
    return [hist[n] for n in ns]


def _on_simplex(g: MotionGroup, w: np.ndarray) -> GroupMeasure:
    """The real part of weights w, clipped at 0 and scaled to unit mass:
    on a power of a probability, what roundoff left off the simplex
    (imaginary parts, entries below 0, mass away from 1) is removed."""
    w = np.clip(w.real, 0.0, None)
    return GroupMeasure(g, w / w.sum())


def exact_powers(mu: GroupMeasure, ns: Sequence[int]) -> List[GroupMeasure]:
    """mu^n of a probability mu for each entry of ns, in its order. One
    chain squares the blocks P = Lambda_alpha(mu) up to the top bit of
    max(ns); mu^n's blocks, the squares at the set bits of n multiplied
    lowest first, are read back as soon as its top bit is in and put on
    the simplex (_on_simplex), so two squares and one product per open n
    are held. n = 0 gives the point mass at the identity. The power at n
    is exact_powers(mu, [n])[0] bit for bit, whatever the rest of ns."""
    require_probability(mu)
    ns = _steps(ns)
    g = mu.group
    powers, pending = {0: delta(g, g.identity())}, {}
    for bit, square in enumerate(_dyadic_powers(_blocks(g, mu.weights.real), max(ns))):
        for n in {n for n in ns if n >> bit & 1}:
            pending[n] = pending[n] @ square if n in pending else square
            if n >> bit == 1:
                powers[n] = _on_simplex(g, _measure_of_blocks(g, pending.pop(n)))
    return [powers[n] for n in ns]


def tv_to_uniform(dist: GroupMeasure) -> float:
    require_probability(dist)
    flat = 1.0 / dist.group.size
    return float(0.5 * np.abs(dist.weights - flat).sum())
