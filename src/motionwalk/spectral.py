"""Dense spectral computations for measures on finite motion groups.

Spectral radius, operator norm and 1-in-spectrum tests on Fourier blocks,
the Gelfand radius of a measure by repeated convolution squaring, the
measure star-norm, and a numeric cross-check of the radius formula

    gelfand_radius(mu) = max over dual orbits of block spectral radius.

On a discrete group every measure is absolutely continuous with respect to
counting measure, so the singular term of the general formula is
identically zero; reports carry it as a constant with a reason string.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .errors import NoConvergence, Overflow
from .groups import Character, dual_orbits
from .measures import GroupMeasure, convolve, tv_norm
from .reps import _blocks, all_fourier_blocks, compress_to_complement

__all__ = [
    "OneInSpectrumResult",
    "OrbitSpectral",
    "SpectralReport",
    "spectral_radius",
    "op_norm",
    "one_in_spectrum",
    "gelfand_radius",
    "gelfand_sequence",
    "star_norm",
    "orbit_spectra",
    "verify_srf",
    "SINGULAR_REASON",
]

SINGULAR_REASON = "discrete Haar: all measures absolutely continuous"


@dataclass(frozen=True)
class OneInSpectrumResult:
    verdict: bool
    margin: float
    # secondary diagnostic: min |eigenvalue - 1|, nan if the solver failed
    eigen_distance: float


@dataclass(frozen=True)
class OrbitSpectral:
    representative: Character
    spectral_radius: float
    op_norm: float
    one_in_spectrum: bool
    margin: float

    def to_dict(self) -> dict:
        return {
            "representative": list(self.representative.alpha),
            "spectral_radius": self.spectral_radius,
            "op_norm": self.op_norm,
            "one_in_spectrum": self.one_in_spectrum,
            "margin": self.margin,
        }


@dataclass(frozen=True)
class SpectralReport:
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

    def to_dict(self) -> dict:
        return {
            "gelfand_radius_estimate": self.gelfand_radius_estimate,
            "per_orbit": [o.to_dict() for o in self.per_orbit],
            "lambda0_complement": self.lambda0_complement.to_dict(),
            "star_norm": self.star_norm,
            "singular_term": self.singular_term,
            "singular_reason": self.singular_reason,
            "formula_gap": self.formula_gap,
            "tol": self.tol,
            "passed": self.passed,
        }


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


def op_norm(m: np.ndarray) -> float | np.ndarray:
    """Operator (largest singular value) norm of a matrix, or of each matrix
    of a (..., rows, cols) stack; 0 for an empty block."""
    a = _stack(m, square=False)
    try:
        s = np.linalg.svd(a, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"svd failed: {exc}") from exc
    return _scalar(s.max(axis=-1, initial=0.0), a)


def one_in_spectrum(m: np.ndarray, tol: float = 1e-8) -> OneInSpectrumResult:
    """Test 1 in spectrum(m) via the smallest singular value of I - m.

    The singular-value margin is the primary, backward-stable criterion;
    the eigenvalue distance to 1 is kept as a secondary diagnostic.
    An empty (0 x 0) block has no spectrum: verdict false, infinite margin.
    On a (..., n, n) stack every field is an array over the stack.
    """
    a = _stack(m)
    try:
        s = np.linalg.svd(np.eye(a.shape[-1]) - a, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"svd failed: {exc}") from exc
    margin = s.min(axis=-1, initial=math.inf)
    try:
        eigen_distance = np.abs(np.linalg.eigvals(a) - 1.0).min(axis=-1, initial=math.inf)
    except np.linalg.LinAlgError:
        eigen_distance = np.full(a.shape[:-2], math.nan)
    return OneInSpectrumResult(_scalar(margin <= tol, a), _scalar(margin, a),
                               _scalar(eigen_distance, a))


def gelfand_sequence(mu: GroupMeasure, kmax: int) -> List[float]:
    """Estimates tv_norm(mu^(2^k))^(1/2^k) for k = 0..kmax, non-increasing.

    Each squaring step renormalizes to unit TV norm and accumulates the
    discarded scale in log space, so no power under- or overflows.
    """
    if kmax < 0:
        raise ValueError(f"kmax must be >= 0, got {kmax}")
    t0 = tv_norm(mu)
    if t0 == 0.0:
        return [0.0] * (kmax + 1)
    if not math.isfinite(t0):
        raise Overflow("initial TV norm is not finite")
    log_est = math.log(t0)
    nu = (1.0 / t0) * mu
    out = [t0]
    for k in range(1, kmax + 1):
        nu2 = convolve(nu, nu)
        c = tv_norm(nu2)
        if c == 0.0:
            # nilpotent: some power vanished exactly
            out.extend([0.0] * (kmax + 1 - k))
            return out
        if not math.isfinite(c):
            raise Overflow(f"scale tracking failed at squaring step {k}")
        log_est += math.log(c) / (1 << k)
        out.append(math.exp(log_est))
        nu = (1.0 / c) * nu2
    return out


def gelfand_radius(mu: GroupMeasure, kmax: int = 20) -> float:
    """Upper estimate of lim tv_norm(mu^n)^(1/n) by kmax repeated squarings.

    Always runs all kmax squarings: successive estimates can agree while
    still far from the limit (a sparse measure whose first square has no
    cancellation keeps its TV norm), so no early stop is safe. The doubling
    subsequence is non-increasing, so the result is always an upper bound
    on the limit.
    """
    if kmax < 1:
        raise ValueError(f"kmax must be >= 1, got {kmax}")
    return gelfand_sequence(mu, kmax)[kmax]


def star_norm(mu: GroupMeasure) -> float:
    """sup over unitary duals of the operator norm of the represented measure.

    Every irreducible embeds in an induced block, so the sup is attained
    over dual-orbit representatives.  It is read off the Fourier blocks:
    mu_hat(Lambda_alpha) = Lambda_alpha(conj mu)^* and Lambda_{-alpha}(conj mu)
    = conj(Lambda_alpha(mu)), so both families have the same norms up to a
    permutation of orbits.
    """
    return float(op_norm(all_fourier_blocks(mu)).max())


def orbit_spectra(mu: GroupMeasure, tol: float = 1e-8
                  ) -> Tuple[Tuple[OrbitSpectral, ...], OrbitSpectral]:
    """Records of every dual-orbit Fourier block, zero orbit first, and of
    the zero-orbit block compressed to the complement of the constants:
    one FFT, and one call of each spectral function per stack."""
    g = mu.group
    reps = [o.representative for o in dual_orbits(g)]
    blocks = _blocks(g, mu.weights[g.inv_perm()], reps)

    def records(alphas: List[Character], stack: np.ndarray) -> Tuple[OrbitSpectral, ...]:
        ois = one_in_spectrum(stack, tol=tol)
        return tuple(map(OrbitSpectral, alphas, spectral_radius(stack).tolist(),
                         op_norm(stack).tolist(), ois.verdict.tolist(),
                         ois.margin.tolist()))

    comp = compress_to_complement(g, blocks[0])[None]
    return records(reps, blocks), records(reps[:1], comp)[0]


def verify_srf(mu: GroupMeasure, tol: float = 1e-6, kmax: int = 20,
               one_tol: float = 1e-8) -> SpectralReport:
    """Cross-check the radius formula on one measure.

    Compares the repeated-squaring Gelfand estimate against the max block
    spectral radius over all dual orbits (full blocks, zero orbit
    included). The complement record splits off the constants line of the
    zero-orbit block; it informs classification, not the formula gap.
    """
    per_orbit, comp = orbit_spectra(mu, one_tol)
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
