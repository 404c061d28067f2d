"""Dense spectral computations for measures on finite motion groups.

Spectral radius, operator norm and 1-in-spectrum tests on Fourier blocks,
the Gelfand radius of a measure by repeated convolution squaring, and a
numeric cross-check of the radius formula

    gelfand_radius(mu) = max over dual orbits of block spectral radius

whose report also carries the measure star-norm. The squarings run on the
A-Fourier transform of the power, kept in range by exact power-of-two
scales, with one inverse FFT for the TV norm at each step whose estimate
is reported (one for gelfand_radius), and never read the block stack: the
two sides of the formula are computed by independent routes, so the check
can fail.

On a discrete group every measure is absolutely continuous with respect to
counting measure, so the singular term of the general formula is
identically zero; reports carry it as a constant with a reason string.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from .errors import NoConvergence, Overflow
from .groups import Character, MotionGroup, Record
from .measures import (GroupMeasure, _fourier_product, _product_index, _transform, _weights,
                       tv_norm)
from .reps import _blocks, compress_to_complement

__all__ = [
    "OneInSpectrumResult",
    "OrbitSpectral",
    "SpectralReport",
    "spectral_radius",
    "op_norm",
    "one_in_spectrum",
    "gelfand_radius",
    "gelfand_sequence",
    "orbit_spectra",
    "verify_srf",
    "SINGULAR_REASON",
]

SINGULAR_REASON = "discrete Haar: all measures absolutely continuous"

# default margin of one_in_spectrum and guard band of the spectral verdicts
SPECTRAL_TOL = 1e-8
# largest slice of a block stack, in complex entries, that _singular_extremes
# stacks with its I - m for one svd call (2048 blocks of 4 x 4)
SVD_SLICE_ENTRIES = 1 << 15


@dataclass(frozen=True)
class OneInSpectrumResult:
    verdict: bool
    margin: float


@dataclass(frozen=True)
class OrbitSpectral(Record):
    representative: Character
    spectral_radius: float
    op_norm: float
    one_in_spectrum: bool
    margin: float


@dataclass(frozen=True)
class SpectralReport(Record):
    gelfand_radius_estimate: float
    per_orbit: Tuple[OrbitSpectral, ...]
    lambda0_complement: OrbitSpectral
    star_norm: float
    singular_term: float
    singular_reason: str
    formula_gap: float
    tol: float
    passed: bool

    @property
    def formula_radius(self) -> float:
        """Block side of the formula: sup of orbit radii and singular term."""
        block = max((o.spectral_radius for o in self.per_orbit), default=0.0)
        return max(block, self.singular_term)


def _stack(m: np.ndarray, square: bool = True) -> np.ndarray:
    """m as a finite (..., rows, cols) array, square unless told otherwise."""
    a = np.asarray(m)
    if a.ndim < 2 or square and a.shape[-1] != a.shape[-2]:
        raise ValueError(f"expected a {'square ' * square}matrix or stack of them, got {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix has non-finite entries")
    return a


def _scalar(x: np.ndarray, a: np.ndarray) -> float | bool | np.ndarray:
    """x per matrix of a: a Python scalar for a single matrix."""
    return x.item() if a.ndim == 2 else x


def spectral_radius(m: np.ndarray) -> float | np.ndarray:
    """Largest eigenvalue magnitude of a dense square matrix, or of each
    matrix of a (..., n, n) stack; 0 for an empty block."""
    a = _stack(m)
    try:
        ev = np.linalg.eigvals(a)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"eigenvalue iteration failed: {exc}") from exc
    return _scalar(np.abs(ev).max(axis=-1, initial=0.0), a)


def _singular_extremes(a: np.ndarray, norm: bool = True, margin: bool = True
                       ) -> Tuple[np.ndarray | None, np.ndarray | None]:
    """Per matrix m of a (..., rows, cols) stack, square where margin is
    asked: the largest singular value of m (0 for an empty block) if norm,
    and the smallest of I - m (infinite for an empty block) if margin.
    Both come from one np.linalg.svd call per slice of at most
    SVD_SLICE_ENTRIES entries of a and those of I - a, so a call copies one
    slice, not the whole stack. numpy decomposes each matrix on its own, so
    each value is the one a call on its own stack gives, bit for bit."""
    rows, cols = a.shape[-2:]
    flat = a.reshape((math.prod(a.shape[:-2]), rows, cols))
    out = np.empty((2, len(flat)))
    step = max(1, SVD_SLICE_ENTRIES // max(1, rows * cols))
    for lo in range(0, len(flat), step):
        part = flat[lo:lo + step]
        parts = ([part] if norm else []) + ([np.eye(cols) - part] if margin else [])
        try:
            s = np.linalg.svd(np.stack(parts), compute_uv=False)
        except np.linalg.LinAlgError as exc:
            raise NoConvergence(f"svd failed: {exc}") from exc
        out[:, lo:lo + step] = s[0].max(axis=-1, initial=0.0), s[-1].min(axis=-1, initial=math.inf)
    norms, margins = out.reshape((2,) + a.shape[:-2])
    return norms if norm else None, margins if margin else None


def op_norm(m: np.ndarray) -> float | np.ndarray:
    """Operator (largest singular value) norm of a matrix, or of each matrix
    of a (..., rows, cols) stack; 0 for an empty block."""
    a = _stack(m, square=False)
    return _scalar(_singular_extremes(a, margin=False)[0], a)


def one_in_spectrum(m: np.ndarray, tol: float = SPECTRAL_TOL) -> OneInSpectrumResult:
    """Test 1 in spectrum(m) via the smallest singular value of I - m.

    The singular-value margin is backward stable and never above the
    eigenvalue distance to 1. An empty (0 x 0) block has no spectrum:
    verdict false, infinite margin. On a (..., n, n) stack every field is
    an array over the stack.
    """
    a = _stack(m)
    margin = _singular_extremes(a, norm=False)[1]
    return OneInSpectrumResult(_scalar(margin <= tol, a), _scalar(margin, a))


def _gelfand_estimates(mu: GroupMeasure, reads: Sequence[int]) -> List[float]:
    """tv_norm(mu^(2^k))^(1/2^k) at each k of reads, an increasing
    sequence of steps >= 0, from one chain of max(reads) squarings.

    The chain squares on the A-Fourier transform h of the current power,
    kept characters last: each step is one _fourier_product (the
    convolution of M(G), through a gather index built once). After each
    square, h is scaled by 2^-e, e the binary exponent of its largest real
    or imaginary part, so its parts stay in (-1, 1) and no power under-
    or overflows; the scale is exact and carried as an integer exponent s,
    with h the transform of (mu / t0)^(2^k) / 2^s. Only at a step k of
    reads does one inverse FFT give the TV norm c of the scaled power, and
    the estimate is t0 * (2^s c)^(1/2^k): the scales cancel, so it is the
    same whatever scale the powers carried. The chain never reads the
    Fourier block stack, so it stays a route to the radius independent of
    the blocks it is checked against.
    """
    t0 = tv_norm(mu)
    if t0 == 0.0:
        return [0.0] * len(reads)
    if not math.isfinite(t0):
        raise Overflow("initial TV norm is not finite")
    g = mu.group
    index = _product_index(g)
    h = np.ascontiguousarray(_transform(g, mu.weights * (1.0 / t0)).T)
    s = 0
    out = [t0] if reads[0] == 0 else []
    for k in range(1, reads[-1] + 1):
        h = _fourier_product(h, h, index)
        parts = h.view(np.float64)
        top = float(np.abs(parts).max())
        if top == 0.0:
            # nilpotent: some power vanished exactly
            return out + [0.0] * (len(reads) - len(out))
        if not math.isfinite(top):
            raise Overflow(f"scale tracking failed at squaring step {k}")
        e = math.frexp(top)[1]
        np.ldexp(parts, -e, out=parts)
        s = 2 * s + e
        if k in reads:
            c = float(np.abs(_weights(g, h.T)).sum())
            if not math.isfinite(c):
                raise Overflow(f"scale tracking failed at squaring step {k}")
            out.append(t0 * math.exp(math.log(2.0) * (s / (1 << k)) + math.log(c) / (1 << k)))
    return out


def gelfand_sequence(mu: GroupMeasure, kmax: int) -> List[float]:
    """Estimates tv_norm(mu^(2^k))^(1/2^k) for k = 0..kmax, non-increasing:
    kmax squarings of the A-Fourier transform, and one inverse FFT per
    step for the TV norm of each power (_gelfand_estimates)."""
    if kmax < 0:
        raise ValueError(f"kmax must be >= 0, got {kmax}")
    return _gelfand_estimates(mu, range(kmax + 1))


def gelfand_radius(mu: GroupMeasure, kmax: int = 20) -> float:
    """Upper estimate of lim tv_norm(mu^n)^(1/n) by kmax repeated squarings
    of the A-Fourier transform, and one inverse FFT for the TV norm of the
    last power; bit for bit gelfand_sequence(mu, kmax)[kmax].

    Always runs all kmax squarings: successive estimates can agree while
    still far from the limit (a sparse measure whose first square has no
    cancellation keeps its TV norm), so no early stop is safe. The doubling
    subsequence is non-increasing, so the result is always an upper bound
    on the limit.
    """
    if kmax < 1:
        raise ValueError(f"kmax must be >= 1, got {kmax}")
    return _gelfand_estimates(mu, (kmax,))[0]


def _block_spectra(g: MotionGroup, blocks: np.ndarray, tol: float = SPECTRAL_TOL
                   ) -> Tuple[Tuple[OrbitSpectral, ...], OrbitSpectral]:
    """Records of a stack of blocks, one per dual-orbit representative
    (reps._blocks), and of the zero orbit's compressed to the complement
    of the constants. Per stack, one eigvals call gives the radii and one
    svd call (_singular_extremes) the operator norms and the margins of
    one_in_spectrum, bit for bit those of op_norm and one_in_spectrum."""
    chars = [Character(tuple(v)) for v in g.abelian.vectors()[g._representatives].tolist()]

    def records(alphas: List[Character], stack: np.ndarray) -> Tuple[OrbitSpectral, ...]:
        norms, margins = _singular_extremes(stack)
        return tuple(map(OrbitSpectral, alphas, spectral_radius(stack).tolist(),
                         norms.tolist(), (margins <= tol).tolist(), margins.tolist()))

    comp = compress_to_complement(g, blocks[0])[None]
    return records(chars, blocks), records(chars[:1], comp)[0]


def orbit_spectra(mu: GroupMeasure, tol: float = SPECTRAL_TOL
                  ) -> Tuple[Tuple[OrbitSpectral, ...], OrbitSpectral]:
    """_block_spectra of every dual-orbit Fourier block mu_hat(Lambda_alpha),
    zero orbit first: one transform, of the reflected weights."""
    g = mu.group
    return _block_spectra(g, _blocks(g, mu.weights[g.inv_perm()]), tol)


def verify_srf(mu: GroupMeasure, tol: float = 1e-6, kmax: int = 20) -> SpectralReport:
    """Cross-check the radius formula on one measure.

    Compares the repeated-squaring Gelfand estimate against the max block
    spectral radius over all dual orbits (full blocks, zero orbit
    included). The complement record splits off the constants line of the
    zero-orbit block; it informs classification, not the formula gap.
    star_norm is the sup over the unitary dual of the operator norm of the
    represented measure: every irreducible embeds in an induced block, so
    it is the largest block operator norm.
    """
    per_orbit, comp = orbit_spectra(mu)
    gel = gelfand_radius(mu, kmax=kmax)
    block_side = max((o.spectral_radius for o in per_orbit), default=0.0)
    gap = abs(gel - block_side)
    return SpectralReport(
        gelfand_radius_estimate=gel,
        per_orbit=per_orbit,
        lambda0_complement=comp,
        star_norm=max(o.op_norm for o in per_orbit),
        singular_term=0.0,
        singular_reason=SINGULAR_REASON,
        formula_gap=gap,
        tol=tol,
        passed=gap <= tol,
    )
