"""Monte Carlo sampling of the random walk and empirical decay to uniform.

Exact dyadic convolution is always available as ground truth; the sampler
exists to exercise the probabilistic path and as an independent
statistical check on the spectral classifiers. Trials draw from a
counter-based generator, so a fixed seed reproduces the histogram bit for
bit.

The walk is step-major: step s draws one uniform per trial, the block
[s*trials, (s+1)*trials) of the seed's stream, maps it to an atom of the
measure by inverse CDF over the atoms only, and steps x -> x * atom
through the (|G|, #atoms) table of right products by the atoms. The dense
|G| x |G| multiplication table is never built. A walk of n steps is
therefore a prefix of every longer walk with the same seed, and one walk
yields the histogram at every requested n. Memory beyond the (|G|,
#atoms) table is O(trials): the trials x steps uniforms are never
materialised.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Sequence, Tuple

import numpy as np

from .errors import GroupMismatch
from .groups import MotionGroup, right_products
from .measures import GroupMeasure, convolve, delta, from_weights, require_probability

__all__ = [
    "WalkConfig",
    "sample_path",
    "empirical_distribution",
    "empirical_distributions",
    "exact_power",
    "exact_powers",
    "tv_to_uniform",
]


@dataclass(frozen=True)
class WalkConfig:
    steps: int
    trials: int
    seed: int

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise ValueError(f"need trials >= 1, got {self.trials}")
        if self.steps < 0:
            raise ValueError(f"need steps >= 0, got {self.steps}")


def _increment_cdf(mu: GroupMeasure) -> np.ndarray:
    """Inverse-CDF table over the element enumeration: element
    searchsorted(cdf, u, side="right") is the increment for a uniform u in
    [0, 1). Weights are clipped at 0 so the table is monotone, and it is
    sealed at 1 from the last atom on, so roundoff in the total never
    draws an element of weight 0. (A total just above 1 leaves entries
    above 1 before the seal; every u < 1 still sees cdf > u switch from
    false to true exactly once, which is all the search needs.)"""
    w = np.clip(np.real(mu.weights), 0.0, None)
    cdf = np.cumsum(w)
    cdf[np.flatnonzero(w)[-1]:] = 1.0
    return cdf


def _walk(g: MotionGroup, mu: GroupMeasure, ns: Sequence[int], trials: int,
          seed: int) -> Iterator[Tuple[int, np.ndarray]]:
    """Yield (n, position index of X_n per trial) for each distinct n in
    ns, in increasing order, from one walk of max(ns) steps."""
    require_probability(mu)
    if g is not mu.group:
        raise GroupMismatch("the measure lives on another group")
    if len(ns) == 0 or min(ns) < 0:
        raise ValueError(f"need a nonempty list of steps >= 0, got {list(ns)}")
    cfg = WalkConfig(steps=max(ns), trials=trials, seed=seed)
    # a search of the full table stops only where it rises, so searching
    # the rises alone draws the same element for every u
    cdf = _increment_cdf(mu)
    atoms = np.flatnonzero(np.diff(cdf, prepend=0.0) > 0)
    cdf = cdf[atoms]
    table = right_products(g, atoms).ravel()
    rng = np.random.Generator(np.random.Philox(key=cfg.seed))
    u = np.empty(cfg.trials)
    x = np.zeros(cfg.trials, dtype=np.int64)
    wanted = set(ns)
    for step in range(cfg.steps + 1):
        if step in wanted:
            yield step, x
        if step == cfg.steps:
            return
        x = table[x * len(atoms) + np.searchsorted(cdf, rng.random(out=u), side="right")]


def sample_path(g: MotionGroup, mu: GroupMeasure, cfg: WalkConfig) -> np.ndarray:
    """Final position index of X_n = xi_1 xi_2 ... xi_n per trial, with
    increments drawn i.i.d. by inverse CDF over the canonical element
    enumeration."""
    ((_, final),) = _walk(g, mu, [cfg.steps], cfg.trials, cfg.seed)
    return final


def empirical_distributions(g: MotionGroup, mu: GroupMeasure, ns: Sequence[int],
                            trials: int, seed: int) -> List[GroupMeasure]:
    """Histograms of X_n, normalized to probabilities, one per entry of
    ns and in its order, all read from one walk of max(ns) steps. The
    histogram at n equals empirical_distribution(g, mu, n, trials, seed)
    bit for bit."""
    hist = {n: from_weights(g, np.bincount(x, minlength=g.size) / trials)
            for n, x in _walk(g, mu, ns, trials, seed)}
    return [hist[n] for n in ns]


def empirical_distribution(g: MotionGroup, mu: GroupMeasure, n: int,
                           trials: int, seed: int) -> GroupMeasure:
    """Histogram of sample_path endpoints, normalized to a probability."""
    return empirical_distributions(g, mu, [n], trials, seed)[0]


def exact_powers(mu: GroupMeasure, ns: Sequence[int]) -> List[GroupMeasure]:
    """mu^n for each entry of ns, in its order, from one chain of
    squarings mu, mu^2, mu^4, ... up to max(ns). Each power is the product
    of the chain's entries at the set bits of n, lowest bit first, and
    starts from its first factor; n = 0 gives the point mass at the
    identity. The power at n does not depend on the other entries of ns,
    so it equals exact_power(mu, n) bit for bit."""
    if len(ns) == 0 or min(ns) < 0:
        raise ValueError(f"need a nonempty list of n >= 0, got {list(ns)}")
    squares = [mu]
    while 2 ** len(squares) <= max(ns):
        squares.append(convolve(squares[-1], squares[-1]))
    powers = []
    for n in ns:
        result = None
        for bit, square in enumerate(squares):
            if n >> bit & 1:
                result = square if result is None else convolve(result, square)
        powers.append(delta(mu.group, mu.group.identity()) if result is None else result)
    return powers


def exact_power(mu: GroupMeasure, n: int) -> GroupMeasure:
    """mu^n by square-and-multiply convolution; n = 0 gives the point
    mass at the identity."""
    return exact_powers(mu, [n])[0]


def tv_to_uniform(dist: GroupMeasure) -> float:
    require_probability(dist)
    flat = 1.0 / dist.group.size
    return float(0.5 * np.abs(dist.weights - flat).sum())
