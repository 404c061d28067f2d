"""Deterministic battery of 200 probability measures on small motion groups.

Families are chosen so the classification of every case is forced by
construction rather than by luck:

* uniform and identity point masses (the two trivial poles),
* contraction mixers (1-b)*uniform + b*nu with b <= 0.3, whose powers are
  exactly uniform + b^k*(nu^k - uniform), so every nontrivial spectral
  radius is at most b and both power decay and Cesaro averages settle far
  inside the empirical thresholds,
* measures supported on proper subgroups (not adapted, translate gap 2),
* uniform measures on a translation coset A x {s} (adapted but periodic:
  nonzero-orbit blocks vanish identically while the point-group component
  cycles),
* lazy versions of the coset walks (aperiodic, radii <= 0.8),
* punctured uniforms (uniform off the identity, radii 1/(|G|-1)),
* hand-picked order witnesses on the two plain cyclic groups.

Radii of cases meant to mix stay at or below about 1/3 so the Cesaro
average of any nonzero-orbit block over 512 steps stays under 1e-3; cases
meant not to mix keep a distance ||mu^n - u||_1 to Haar (classify's d)
that is constant to rounding.
Everything is seeded by case name, so rebuilding the battery is
reproducible.
"""
from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Callable, Dict, List

import numpy as np

from .families import (
    negation_group,
    rotation_group,
    scaling_group,
    swap_group,
    trivial_group,
)
from .groups import GElem, MotionGroup
from .measures import GroupMeasure, delta, from_weights, uniform, uniform_on

__all__ = [
    "SuiteCase",
    "roster",
    "acceptance_suite",
    "fast_mixer",
    "coset_walk",
]

_SEED_BASE = 0x6D77  # "mw"; folded into every per-case Philox key


@dataclass(frozen=True)
class SuiteCase:
    name: str
    group_key: str
    family: str
    group: MotionGroup = field(repr=False)
    measure: GroupMeasure = field(repr=False)
    note: str = ""


def roster() -> Dict[str, MotionGroup]:
    """The fourteen groups the battery runs over, orders 2 through 194."""
    builders: Dict[str, Callable[[], MotionGroup]] = {
        "t2": lambda: trivial_group(2),
        "t4": lambda: trivial_group(4),
        "neg5": lambda: negation_group(5),
        "neg8": lambda: negation_group(8),
        "neg12": lambda: negation_group(12),
        "neg97": lambda: negation_group(97),
        "sc7_2_3": lambda: scaling_group(7, 2, 3),
        "sc5_2_4": lambda: scaling_group(5, 2, 4),
        "sc11_3_5": lambda: scaling_group(11, 3, 5),
        "sc16_3_4": lambda: scaling_group(16, 3, 4),
        "sc25_7_4": lambda: scaling_group(25, 7, 4),
        "swap3": lambda: swap_group(3),
        "swap5": lambda: swap_group(5),
        "rot4": lambda: rotation_group(4),
    }
    return {key: build() for key, build in builders.items()}


def _rng(name: str) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=_SEED_BASE + zlib.crc32(name.encode())))


def _sparse_probability(g: MotionGroup, rng: np.random.Generator) -> GroupMeasure:
    lo, hi = min(3, g.size), min(7, g.size + 1)
    n_atoms = int(rng.integers(lo, hi)) if hi > lo else g.size
    idx = rng.choice(g.size, size=n_atoms, replace=False)
    raw = rng.random(n_atoms) + 0.1
    w = np.zeros(g.size)
    w[idx] = raw / raw.sum()
    return from_weights(g, w)


def _dense_probability(g: MotionGroup, rng: np.random.Generator) -> GroupMeasure:
    raw = rng.random(g.size) + 0.05
    return from_weights(g, raw / raw.sum())


def fast_mixer(g: MotionGroup, beta: float, nu: GroupMeasure) -> GroupMeasure:
    """(1-beta)*uniform + beta*nu; nontrivial spectral radii <= beta."""
    return GroupMeasure(g, uniform(g).weights * (1.0 - beta) + nu.weights * beta)


def coset_walk(g: MotionGroup, k: int = 1) -> GroupMeasure:
    """Uniform on the translation coset A x {k}."""
    return uniform_on(g, (GElem(a, k) for a in g.abelian.elements()))


def _fiber_uniform_identity(g: MotionGroup) -> GroupMeasure:
    return uniform_on(g, (GElem(a, 0) for a in g.abelian.elements()))


def _axis_uniform(g: MotionGroup) -> GroupMeasure:
    zero = (0,) * g.abelian.rank
    return uniform_on(g, (GElem(zero, k) for k in range(g.k.order)))


def _punctured_uniform(g: MotionGroup) -> GroupMeasure:
    w = np.full(g.size, 1.0 / (g.size - 1))
    w[g.index(g.identity())] = 0.0
    return from_weights(g, w)


def _off_axis_uniform(g: MotionGroup) -> GroupMeasure:
    zero = (0,) * g.abelian.rank
    w = np.full(g.size, 1.0 / (g.size - g.k.order))
    for k in range(g.k.order):
        w[g.index(GElem(zero, k))] = 0.0
    return from_weights(g, w)


def acceptance_suite() -> List[SuiteCase]:
    """Exactly 200 cases; build each group once and share it."""
    groups = roster()
    cases: List[SuiteCase] = []

    def add(key: str, family: str, measure: GroupMeasure, note: str = "") -> None:
        name = f"{key}/{family}"
        cases.append(SuiteCase(name, key, family, groups[key], measure, note))

    for key, g in groups.items():
        add(key, "uniform", uniform(g))
        add(key, "point-identity", delta(g, g.identity()))

        mixer_specs = [("sparse", 0.1), ("sparse", 0.2), ("sparse", 0.3),
                       ("dense", 0.15), ("dense", 0.25)]
        if g.size >= 100:
            mixer_specs.append(("sparse-extra", 0.12))
        for kind, beta in mixer_specs:
            family = f"mixer-{kind}-{int(round(beta * 100)):02d}"
            rng = _rng(f"{key}/{family}")
            nu = _dense_probability(g, rng) if kind == "dense" else _sparse_probability(g, rng)
            add(key, family, fast_mixer(g, beta, nu))

        if g.k.order > 1:
            one = (1,) + (0,) * (g.abelian.rank - 1)
            add(key, "fiber-uniform-identity", _fiber_uniform_identity(g))
            add(key, "point-translation", delta(g, GElem(one, 0)))
            add(key, "point-rotation", delta(g, GElem((0,) * g.abelian.rank, 1)))
            add(key, "axis-uniform", _axis_uniform(g))
            add(key, "coset-walk", coset_walk(g))
            # lazy weight 1/4 keeps the point-group component contracting at
            # |1/4 + 3/4 w| for roots of unity w; acceptable up to order 4
            if g.k.order <= 4:
                lazy = delta(g, g.identity()) * 0.25 + coset_walk(g) * 0.75
                add(key, "lazy-coset-walk", lazy)

        if g.size >= 3:
            add(key, "punctured-uniform", _punctured_uniform(g))
        if g.k.order > 1:
            add(key, "off-axis-uniform", _off_axis_uniform(g))

    t2 = groups["t2"]
    add("t2", "order-two-point", delta(t2, GElem((1,), 0)),
        note="designed witness: ergodic but not mixing, point of order two")
    t4 = groups["t4"]
    add("t4", "cyclic-point", delta(t4, GElem((1,), 0)),
        note="generator point mass: ergodic, periodic mod 4")
    add("t4", "odd-coset-uniform", uniform_on(t4, [GElem((1,), 0), GElem((3,), 0)]),
        note="uniform on the odd residues: ergodic, period two")

    # t4 also gets the non-generating point mass as its non-adapted entry
    add("t4", "point-subgroup", delta(t4, GElem((2,), 0)),
        note="supported on the index-two subgroup")

    if len(cases) != 200:
        raise AssertionError(f"suite size drifted: {len(cases)}")
    return cases
