"""Induced representations on l2(K) and Fourier transforms of measures.

For a character alpha of A, the induced representation of G acts by

    [Lambda_alpha(a, k) phi](k') = <a, phi_{k'}(alpha)> phi(k^{-1} k'),

realized here as dense |K| x |K| unitary matrices in the delta-function
basis of l2(K).  Spectral conditions are always evaluated on these blocks,
one per dual orbit, plus the complement-of-constants compression of the
block at the trivial character.  The blocks are gathered from
measures._transform and read back through measures._weights, so they
share that module's one Fourier convention.
"""
from __future__ import annotations

from typing import Iterator, Optional, Sequence

import numpy as np

from .groups import Character, MotionGroup, dual_table
from .measures import GroupMeasure, _transform, _weights

__all__ = [
    "fourier",
    "rep_of_measure",
    "compress_to_complement",
    "complement_basis",
]


def _blocks(g: MotionGroup, w: np.ndarray,
            alphas: Optional[Sequence[int]] = None) -> np.ndarray:
    """Stack of sum_x w(x) Lambda_alpha(x), one |K| x |K| block per
    A-index of alphas, or per dual-orbit representative
    (MotionGroup._representatives) when alphas is None.

    Every Lambda_alpha(a, k) is monomial: row k' holds <a, beta_{k'}>, with
    beta_{k'} = alpha . M_{k'^{-1}}, in column k^{-1} k'.  So entry (k', c)
    is the A-Fourier transform (measures._transform) of w(., k' c^{-1}) at
    beta_{k'}: one transform and one gather through the group's block index
    (MotionGroup._block_index) give every block (the abelian-extension FFT).
    """
    rows, cols = g._block_index
    if alphas is not None:
        rows = dual_table(g)[alphas][:, :, None]
    return _transform(g, w)[rows, cols]


def _measure_of_blocks(g: MotionGroup, stack: np.ndarray) -> np.ndarray:
    """The weights w with _blocks(g, w) == stack, the blocks of every
    dual-orbit representative; a (..., orbits, nk, nk) stack gives
    (..., |G|) weights.

    The orbits cover the dual group, so the scatter writes every entry of
    the transform; a beta with a nontrivial stabilizer is written once per
    k' that sends alpha to it, with equal values on a stack of blocks.
    One inverse transform (measures._weights) undoes _blocks' transform.
    """
    f = np.empty(stack.shape[:-3] + (g.abelian.size, g.k.order), dtype=np.complex128)
    f[(...,) + g._block_index] = stack
    return _weights(g, f)


def _dyadic_powers(p: np.ndarray, n_max: int) -> Iterator[np.ndarray]:
    """p, p^2, p^4, ..., p^(2^j) of the block stack p, 2^j the top bit of
    n_max, each squared when asked for (Lambda_alpha(mu^n) =
    Lambda_alpha(mu)^n): the package's one block-squaring chain, for the
    classifier's curves and simulate.exact_powers."""
    yield p
    for _ in range(n_max.bit_length() - 1):
        p = p @ p
        yield p


def fourier(mu: GroupMeasure, alpha: Character) -> np.ndarray:
    """Fourier transform mu_hat(Lambda_alpha) = sum_x mu(x) Lambda_alpha(x^{-1}).

    Linear in mu and reverses convolution order: (mu * nu)^ = nu^ mu^.
    """
    g = mu.group
    return _blocks(g, mu.weights[g.inv_perm()], [g.abelian.index(alpha.alpha)])[0]


def rep_of_measure(mu: GroupMeasure, alpha: Character) -> np.ndarray:
    """Lambda_alpha(mu) = sum_x mu(x) Lambda_alpha(x); satisfies
    mu_hat(Lambda_alpha) = Lambda_alpha(conj(mu))^*."""
    g = mu.group
    return _blocks(g, mu.weights, [g.abelian.index(alpha.alpha)])[0]


def complement_basis(g: MotionGroup) -> np.ndarray:
    """Fixed orthonormal basis of the orthocomplement of constants in l2(K),
    returned as the columns of a |K| x (|K|-1) matrix: the group's shared
    read-only table.

    Built from the Householder reflector sending e_0 to the normalized
    constant vector, so the basis is deterministic across runs.
    """
    return g._complement_basis


def compress_to_complement(g: MotionGroup, block: np.ndarray) -> np.ndarray:
    """A trivial-character block compressed to the complement of the
    constant functions.  Well defined because every Lambda_0(x) fixes the
    constants line."""
    basis = complement_basis(g)
    return basis.conj().T @ block @ basis
