"""Complex measures on a finite motion group.

On a finite group every measure is a dense weight vector over the canonical
element enumeration, convolution is the algebra product of M(G), and the
total-variation norm is the l1 norm of the weights.

The package's one Fourier convention: _transform takes weights w to
h(xi, k) = sum_a w(a, k) <a, xi>, <a, xi> = exp(2 pi i a.xi / n), an
unnormalized ifftn over the translation axes, and _weights inverts it.
Convolution and the blocks of reps both use it.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import GroupMismatch, NotProbability
from .groups import GElem, MotionGroup, dual_table

__all__ = [
    "GroupMeasure",
    "convolve",
    "tv_norm",
    "delta",
    "uniform",
    "uniform_on",
    "from_weights",
    "is_probability",
    "require_probability",
]

PROBABILITY_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class GroupMeasure:
    """Finitely supported complex measure, dense over the element enumeration."""

    group: MotionGroup
    weights: np.ndarray

    def __post_init__(self) -> None:
        w = np.array(self.weights, dtype=np.complex128)
        if w.shape != (self.group.size,):
            raise ValueError(f"weights must have length {self.group.size}, got {w.shape}")
        if not np.isfinite(w).all():
            raise ValueError("weights must be finite")
        w.flags.writeable = False
        object.__setattr__(self, "weights", w)

    def __add__(self, other: "GroupMeasure") -> "GroupMeasure":
        _same_group(self, other)
        return GroupMeasure(self.group, self.weights + other.weights)

    def __sub__(self, other: "GroupMeasure") -> "GroupMeasure":
        _same_group(self, other)
        return GroupMeasure(self.group, self.weights - other.weights)

    def __mul__(self, scalar: complex) -> "GroupMeasure":
        return GroupMeasure(self.group, self.weights * scalar)

    __rmul__ = __mul__

    def conjugate(self) -> "GroupMeasure":
        return GroupMeasure(self.group, np.conj(self.weights))

    def support(self) -> np.ndarray:
        return np.nonzero(self.weights)[0]

    def total_mass(self) -> complex:
        return complex(self.weights.sum())


def _same_group(mu: GroupMeasure, nu) -> None:
    if mu.group is not nu.group:
        raise GroupMismatch("measures live on different groups")


def delta(g: MotionGroup, x: GElem) -> GroupMeasure:
    w = np.zeros(g.size, dtype=np.complex128)
    w[g.index(x)] = 1.0
    return GroupMeasure(g, w)


def uniform(g: MotionGroup) -> GroupMeasure:
    return GroupMeasure(g, np.full(g.size, 1.0 / g.size, dtype=np.complex128))


def uniform_on(g: MotionGroup, elems: Iterable[GElem]) -> GroupMeasure:
    """Uniform over the distinct elements of elems."""
    idxs = list({g.index(x) for x in elems})
    if not idxs:
        raise ValueError("uniform_on needs a nonempty element collection")
    w = np.zeros(g.size, dtype=np.complex128)
    w[idxs] = 1.0 / len(idxs)
    return GroupMeasure(g, w)


def from_weights(g: MotionGroup, weights: Sequence[complex]) -> GroupMeasure:
    return GroupMeasure(g, np.asarray(weights, dtype=np.complex128))


def is_probability(mu: GroupMeasure, tol: float = PROBABILITY_TOL) -> bool:
    w = mu.weights
    if np.abs(w.imag).max(initial=0.0) > tol:
        return False
    if w.real.min(initial=0.0) < -tol:
        return False
    return abs(w.real.sum() - 1.0) <= tol


def require_probability(mu: GroupMeasure, tol: float = PROBABILITY_TOL) -> None:
    if not is_probability(mu, tol):
        raise NotProbability("weights must be real, nonnegative and sum to 1")


def tv_norm(mu: GroupMeasure) -> float:
    """Total variation: sum of |weights| against counting Haar measure."""
    return float(np.abs(mu.weights).sum())


def _transform(g: MotionGroup, w: np.ndarray) -> np.ndarray:
    """A-Fourier transform of (..., |G|) weights, as (..., |A|, |K|)."""
    n, d, nk = g.abelian.modulus, g.abelian.rank, g.k.order
    return np.fft.ifftn(w.reshape(w.shape[:-1] + (n,) * d + (nk,)), norm="forward",
                        axes=range(-d - 1, -1)).reshape(w.shape[:-1] + (n ** d, nk))


def _weights(g: MotionGroup, h: np.ndarray) -> np.ndarray:
    """The (..., |G|) weights whose A-Fourier transform is h."""
    n, d, nk = g.abelian.modulus, g.abelian.rank, g.k.order
    return np.fft.fftn(h.reshape(h.shape[:-2] + (n,) * d + (nk,)), norm="forward",
                       axes=range(-d - 1, -1)).reshape(h.shape[:-2] + (-1,))


def _product_index(g: MotionGroup) -> np.ndarray:
    """Flat (|K|, |K|, |A|) gather index into a (|K|, |A|) transform:
    entry [k1, k, xi] points at (k1^{-1} k, xi . M_{k1}), with
    xi . M_{k1} = dual_action(k1^{-1}, xi) read off dual_table; the
    action is linear, so either sign of the transform's phase may use it."""
    inv = g.k.inverses
    return g.k.table[inv][:, :, None] * g.abelian.size + dual_table(g).T[inv][:, None, :]


def _fourier_product(f: np.ndarray, h: np.ndarray, index: np.ndarray) -> np.ndarray:
    """The transform of mu * nu from f and h, those of mu and nu, each
    laid out characters last, (|K|, |A|):

        (mu * nu)^(xi, k) = sum_{k1} f(xi, k1) h(xi . M_{k1}, k1^{-1} k)

    one gather through index = _product_index(g) and one einsum, both
    running along the character axis."""
    return np.einsum("jx,jkx->kx", f, h.reshape(-1)[index])


def convolve(mu: GroupMeasure, nu: GroupMeasure) -> GroupMeasure:
    """(mu * nu)(x) = sum_y mu(y) nu(y^{-1} x), as one FFT product.

    With y = (b, k1), x = (a, k): y^{-1} x = (phi_{k1}^{-1}(a - b), k1^{-1} k),
    and <phi_{k1}(a), xi> = <a, xi . M_{k1}>, so the A-Fourier transform
    (_transform) turns the product into _fourier_product's twisted sum
    over k1: one transform per factor, one gather, one einsum and one
    inverse (_weights).
    """
    _same_group(mu, nu)
    g = mu.group
    out = _fourier_product(_transform(g, mu.weights).T, _transform(g, nu.weights).T,
                           _product_index(g))
    return GroupMeasure(g, _weights(g, out.T))
