"""Induced representation blocks and Fourier transform identities."""
from __future__ import annotations

import numpy as np
import pytest

from motionwalk.groups import Character, GElem, dual_orbits, inverse, multiply
from motionwalk.measures import delta, from_weights, uniform
from motionwalk.reps import _blocks, _measure_of_blocks, fourier

from conftest import d4_group, rotation_group, trivial_group
from oracles import (
    central_measure,
    convolve,
    lambda0_complement_block,
    lambda_elem,
    left_regular_k,
    orbit_conjugation_check,
    pik_consistency,
)


def orbit_reps(g):
    return [o.representative for o in dual_orbits(g)]


def test_lambda_identity_element(order10):
    for alpha in orbit_reps(order10):
        m = lambda_elem(order10, alpha, order10.identity())
        assert np.allclose(m, np.eye(order10.k.order))


def test_lambda_unitary(order10, order21):
    for g in (order10, order21):
        for alpha in orbit_reps(g):
            for x in g.elements():
                m = lambda_elem(g, alpha, x)
                assert np.allclose(m @ m.conj().T, np.eye(g.k.order), atol=1e-13)


def test_lambda_multiplicative(order10):
    g = order10
    elems = list(g.elements())
    for alpha in orbit_reps(g):
        for x in elems:
            mx = lambda_elem(g, alpha, x)
            for y in elems:
                got = mx @ lambda_elem(g, alpha, y)
                want = lambda_elem(g, alpha, multiply(g, x, y))
                assert np.allclose(got, want, atol=1e-13)


def test_lambda_zero_is_left_regular(order10, order20):
    for g in (order10, order20):
        zero = Character((0,) * g.abelian.rank)
        for x in g.elements():
            m = lambda_elem(g, zero, x)
            assert np.allclose(m, left_regular_k(g, x.k))
            # permutation matrix: 0/1 entries, single 1 per row and column
            assert set(np.unique(m.real)) <= {0.0, 1.0}
            assert np.all(m.imag == 0)
            assert np.all(m.sum(axis=0) == 1) and np.all(m.sum(axis=1) == 1)


def test_fourier_of_delta_identity(order10):
    de = delta(order10, order10.identity())
    for alpha in orbit_reps(order10):
        assert np.allclose(fourier(de, alpha), np.eye(2))


def test_fourier_uniform_kills_nonzero_orbits(order10, order18):
    for g in (order10, order18):
        u = uniform(g)
        for alpha in orbit_reps(g):
            m = fourier(u, alpha)
            if alpha.is_trivial():
                assert np.allclose(m, np.full((g.k.order,) * 2, 1.0 / g.k.order))
            else:
                assert np.allclose(m, 0, atol=1e-13)


def test_fourier_anti_homomorphism(order10, order21):
    rng = np.random.default_rng(7)
    for g in (order10, order21):
        w1 = rng.normal(size=g.size) + 1j * rng.normal(size=g.size)
        w2 = rng.normal(size=g.size) + 1j * rng.normal(size=g.size)
        mu, nu = from_weights(g, w1), from_weights(g, w2)
        conv = convolve(mu, nu)
        for alpha in orbit_reps(g):
            lhs = fourier(conv, alpha)
            rhs = fourier(nu, alpha) @ fourier(mu, alpha)
            assert np.allclose(lhs, rhs, atol=1e-11)


def test_fourier_elementwise_consistency(order10, order18, order72):
    # mu_hat(Lambda) = sum_x mu(x) Lambda(x^{-1}), entry by entry; rank 2
    # and |K| = 4 exercise the multi-axis FFT reshape and the K gather
    rng = np.random.default_rng(9)
    for g in (order10, order18, rotation_group(4), order72):
        nk = g.k.order
        w = rng.normal(size=g.size) + 1j * rng.normal(size=g.size)
        mu = from_weights(g, w)
        for alpha in orbit_reps(g):
            want = np.zeros((nk, nk), dtype=np.complex128)
            for i, x in enumerate(g.elements()):
                want += w[i] * lambda_elem(g, alpha, inverse(g, x))
            assert np.allclose(fourier(mu, alpha), want, atol=1e-12)


def rep_of_measure(mu, alpha):
    # Lambda_alpha(mu) = sum_x mu(x) Lambda_alpha(x), the block at one index
    return _blocks(mu.group, mu.weights, [mu.group.abelian.index(alpha.alpha)])[0]


def test_rep_of_measure_adjoint_identity(order10, order20):
    # mu_hat(Lambda) equals Lambda(conj(mu)) adjoint
    rng = np.random.default_rng(13)
    for g in (order10, order20):
        w = rng.normal(size=g.size) + 1j * rng.normal(size=g.size)
        mu = from_weights(g, w)
        for alpha in orbit_reps(g):
            lhs = fourier(mu, alpha)
            rhs = rep_of_measure(mu.conjugate(), alpha).conj().T
            assert np.allclose(lhs, rhs, atol=1e-13)


def test_rep_of_measure_elementwise(order10, order18, order72):
    rng = np.random.default_rng(15)
    for g in (order10, order18, rotation_group(4), order72):
        nk = g.k.order
        w = rng.normal(size=g.size) + 1j * rng.normal(size=g.size)
        mu = from_weights(g, w)
        for alpha in orbit_reps(g):
            want = np.zeros((nk, nk), dtype=np.complex128)
            for i, x in enumerate(g.elements()):
                want += w[i] * lambda_elem(g, alpha, x)
            assert np.allclose(rep_of_measure(mu, alpha), want, atol=1e-12)


def test_complement_basis_properties(order10, order21):
    for g in (order10, order21):
        q = g._complement_basis
        nk = g.k.order
        assert q.shape == (nk, nk - 1)
        assert np.allclose(q.conj().T @ q, np.eye(nk - 1), atol=1e-13)
        ones = np.ones(nk) / np.sqrt(nk)
        assert np.allclose(q.conj().T @ ones, 0, atol=1e-13)


def test_complement_basis_trivial_k():
    g = trivial_group(4)
    q = g._complement_basis
    assert q.shape == (1, 0)
    mu = uniform(g)
    block = lambda0_complement_block(mu)
    assert block.shape == (0, 0)


def test_complement_spectrum_union(order10, order18):
    # eigs(full Lambda_0 block) = eigs(complement block) + {total mass}
    rng = np.random.default_rng(19)
    for g in (order10, order18):
        w = rng.normal(size=g.size) + 1j * rng.normal(size=g.size)
        mu = from_weights(g, w)
        zero = Character((0,) * g.abelian.rank)
        full = np.sort_complex(np.linalg.eigvals(fourier(mu, zero)))
        comp = np.linalg.eigvals(lambda0_complement_block(mu))
        want = np.sort_complex(np.append(comp, mu.total_mass()))
        assert np.allclose(full, want, atol=1e-10)


def test_orbit_conjugation(order10, order20, order18):
    for g in (order10, order20, order18):
        for alpha in orbit_reps(g):
            for kp in range(g.k.order):
                dev = orbit_conjugation_check(g, alpha, kp)
                assert dev < 1e-12
                if kp == 0:
                    assert dev == 0.0


def test_pik_consistency(order10, order21):
    rng = np.random.default_rng(21)
    for g in (order10, order21):
        w = rng.normal(size=g.size) + 1j * rng.normal(size=g.size)
        assert pik_consistency(from_weights(g, w)) < 1e-13


def test_central_measure_fourier_is_projection(order10, order18):
    # central measure transforms to 1_s(alpha) . identity on every block
    cases = [
        (order10, {Character((1,)), Character((4,))}),
        (order18, {Character((1, 2)), Character((2, 1))}),
    ]
    for g, s in cases:
        nu = central_measure(g, s)
        for orb in dual_orbits(g):
            m = fourier(nu, orb.representative)
            want = 1.0 if orb.representative in s else 0.0
            assert np.allclose(m, want * np.eye(g.k.order), atol=1e-12)


def test_block_map_is_injective(order10):
    # stacking all orbit blocks of all point masses has full rank |G|
    g = order10
    cols = []
    for x in g.elements():
        mu = delta(g, x)
        cols.append(np.concatenate([fourier(mu, alpha).ravel()
                                    for alpha in orbit_reps(g)]))
    mat = np.column_stack(cols)
    assert np.linalg.matrix_rank(mat, tol=1e-10) == g.size


@pytest.mark.parametrize("group", ["order10", "z2", "order16", "order20", "order21",
                                   "order18", "order72", "d4_5"])
def test_measure_of_blocks_inverts_blocks(request, group):
    g = d4_group(5) if group == "d4_5" else request.getfixturevalue(group)
    if group == "d4_5":
        # a beta with stabilizer size s is hit by s of the k', so the
        # scatter writes its transform entries s times
        assert {o.stabilizer_size for o in dual_orbits(g)} == {1, 2, 8}
    rng = np.random.default_rng(g.size)
    w = rng.standard_normal(g.size) + 1j * rng.standard_normal(g.size)
    back = _measure_of_blocks(g, _blocks(g, w))
    assert np.abs(back - w).max() <= 1e-13
