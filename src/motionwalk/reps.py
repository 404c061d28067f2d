"""Induced representations on l2(K) and Fourier transforms of measures.

For a character alpha of A, the induced representation of G acts by

    [Lambda_alpha(a, k) phi](k') = <a, phi_{k'}(alpha)> phi(k^{-1} k'),

realized here as dense |K| x |K| unitary matrices in the delta-function
basis of l2(K).  Spectral conditions are always evaluated on these blocks,
one per dual orbit, plus the complement-of-constants compression of the
block at the trivial character.
"""
from __future__ import annotations

from typing import Sequence

import numpy as np

from .groups import Character, GElem, MotionGroup, dual_action, dual_orbits, dual_table
from .measures import GroupMeasure, push_k

__all__ = [
    "lambda_elem",
    "fourier",
    "rep_of_measure",
    "all_fourier_blocks",
    "lambda0_complement_block",
    "compress_to_complement",
    "left_regular_k",
    "right_regular_k",
    "complement_basis",
    "orbit_conjugation_check",
    "pik_consistency",
]


def lambda_elem(g: MotionGroup, alpha: Character, x: GElem) -> np.ndarray:
    """Matrix of the induced representation at the group element x.

    Phases come from dual_action one row at a time, so this stays an
    elementwise oracle independent of the FFT builder below.
    """
    nk = g.k.order
    n = g.abelian.modulus
    duals = np.array([dual_action(g, kp, alpha).alpha for kp in range(nk)],
                     dtype=np.int64)                      # row k': phi_{k'}(alpha)
    exps = (duals @ np.asarray(x.a, dtype=np.int64)) % n
    phases = np.exp(2j * np.pi * exps / n)
    cols = g.k.table[g.k.inv(x.k), :]                     # k'' = k^{-1} k'
    m = np.zeros((nk, nk), dtype=np.complex128)
    m[np.arange(nk), cols] = phases
    return m


def left_regular_k(g: MotionGroup, k: int) -> np.ndarray:
    """Permutation matrix of [L_K(k) phi](k') = phi(k^{-1} k')."""
    nk = g.k.order
    m = np.zeros((nk, nk))
    m[np.arange(nk), g.k.table[g.k.inv(k), :]] = 1.0
    return m


def right_regular_k(g: MotionGroup, k: int) -> np.ndarray:
    """Permutation matrix of [R_K(k) phi](k') = phi(k' k)."""
    nk = g.k.order
    m = np.zeros((nk, nk))
    m[np.arange(nk), g.k.table[:, k]] = 1.0
    return m


def _blocks(g: MotionGroup, w: np.ndarray,
            alphas: Sequence[Character]) -> np.ndarray:
    """Stack of sum_x w(x) Lambda_alpha(x), one |K| x |K| block per alpha.

    Every Lambda_alpha(a, k) is monomial: row k' holds <a, beta_{k'}>, with
    beta_{k'} = alpha . M_{k'^{-1}}, in column k^{-1} k'.  So entry (k', c)
    is the unnormalized inverse A-Fourier transform of w(., k' c^{-1}) at
    beta_{k'}, and one ifftn over the translation axes plus one gather
    yields every block (the abelian-extension FFT).
    """
    n, d, nk = g.abelian.modulus, g.abelian.rank, g.k.order
    f = np.fft.ifftn(w.reshape((n,) * d + (nk,)), axes=tuple(range(d)),
                     norm="forward").reshape(n ** d, nk)
    rows = dual_table(g)[[g.abelian.index(a.alpha) for a in alphas]]  # A-index of beta_{k'}
    cols = g.k.table[:, g.k.inverses]                                # [k', c] = k' c^{-1}
    return f[rows[:, :, None], cols[None, :, :]]


def fourier(mu: GroupMeasure, alpha: Character) -> np.ndarray:
    """Fourier transform mu_hat(Lambda_alpha) = sum_x mu(x) Lambda_alpha(x^{-1}).

    Linear in mu and reverses convolution order: (mu * nu)^ = nu^ mu^.
    """
    g = mu.group
    return _blocks(g, mu.weights[g.inv_perm()], [alpha])[0]


def rep_of_measure(mu: GroupMeasure, alpha: Character) -> np.ndarray:
    """Lambda_alpha(mu) = sum_x mu(x) Lambda_alpha(x); satisfies
    mu_hat(Lambda_alpha) = Lambda_alpha(conj(mu))^*."""
    return _blocks(mu.group, mu.weights, [alpha])[0]


def all_fourier_blocks(mu: GroupMeasure) -> np.ndarray:
    """(orbits, |K|, |K|) stack of the Fourier blocks at every dual-orbit
    representative, in dual_orbits order, from a single FFT."""
    g = mu.group
    reps = [o.representative for o in dual_orbits(g)]
    return _blocks(g, mu.weights[g.inv_perm()], reps)


def complement_basis(g: MotionGroup) -> np.ndarray:
    """Fixed orthonormal basis of the orthocomplement of constants in l2(K),
    returned as the columns of a |K| x (|K|-1) matrix.

    Built from the Householder reflector sending e_0 to the normalized
    constant vector, so the basis is deterministic across runs.
    """
    nk = g.k.order
    if nk == 1:
        return np.zeros((1, 0))
    u = np.full(nk, 1.0 / np.sqrt(nk))
    v = u.copy()
    v[0] -= 1.0
    v /= np.linalg.norm(v)
    q = np.eye(nk) - 2.0 * np.outer(v, v)    # q[:, 0] == u up to rounding
    return q[:, 1:]


def compress_to_complement(g: MotionGroup, block: np.ndarray) -> np.ndarray:
    """A trivial-character block compressed to the complement of the
    constant functions.  Well defined because every Lambda_0(x) fixes the
    constants line."""
    basis = complement_basis(g)
    return basis.conj().T @ block @ basis


def lambda0_complement_block(mu: GroupMeasure) -> np.ndarray:
    """mu_hat at the trivial character, compressed to the complement of the
    constant functions."""
    g = mu.group
    return compress_to_complement(g, fourier(mu, Character((0,) * g.abelian.rank)))


def orbit_conjugation_check(g: MotionGroup, alpha: Character, kprime: int) -> float:
    """Max deviation of Lambda_{phi_{k'}(alpha)}(x) from
    R_K(k') Lambda_alpha(x) R_K(k')^{-1} over a spanning set of x."""
    moved = dual_action(g, kprime, alpha)
    r = right_regular_k(g, kprime)
    rinv = right_regular_k(g, g.k.inv(kprime))
    worst = 0.0
    for idx in range(g.size):
        x = g.element(idx)
        lhs = lambda_elem(g, moved, x)
        rhs = r @ lambda_elem(g, alpha, x) @ rinv
        worst = max(worst, float(np.abs(lhs - rhs).max()))
    return worst


def pik_consistency(mu: GroupMeasure) -> float:
    """Deviation of mu_hat(Lambda_0) from the K-pushforward reconstruction
    sum_k pi_K(mu)(k) L_K(k^{-1})."""
    g = mu.group
    lhs = fourier(mu, Character((0,) * g.abelian.rank))
    kw = push_k(mu)
    rhs = np.zeros_like(lhs)
    for k in range(g.k.order):
        rhs += kw[k] * left_regular_k(g, g.k.inv(k))
    return float(np.abs(lhs - rhs).max())

