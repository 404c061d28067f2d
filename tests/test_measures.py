"""Measure algebra: convolution, TV norm, pushforward, central measures."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from motionwalk.errors import GroupMismatch, NotProbability
from motionwalk.groups import Character, GElem, dual_table, multiply
from motionwalk.measures import (
    GroupMeasure,
    convolve,
    delta,
    from_weights,
    is_probability,
    require_probability,
    tv_norm,
    uniform,
    uniform_on,
)

from conftest import negation_group, rotation_group, scaling_group
from oracles import (
    ContainsZeroCharacter,
    NotOrbitClosed,
    central_measure,
    mean_zero_basis,
    push_k,
)


def oracle_convolve(g, mu, nu):
    """Dict-based reference convolution using only multiply()."""
    out = np.zeros(g.size, dtype=np.complex128)
    for i in range(g.size):
        if mu.weights[i] == 0:
            continue
        x = g.element(i)
        for j in range(g.size):
            if nu.weights[j] == 0:
                continue
            out[g.index(multiply(g, x, g.element(j)))] += mu.weights[i] * nu.weights[j]
    return out


def random_measure(g, rng, sparse=False):
    w = rng.normal(size=g.size) + 1j * rng.normal(size=g.size)
    if sparse:
        mask = rng.random(g.size) < 0.7
        w[mask] = 0
    return from_weights(g, w)


def test_delta_unit(order10):
    mu = from_weights(order10, np.arange(10) + 0.5j)
    de = delta(order10, order10.identity())
    assert np.allclose(convolve(de, mu).weights, mu.weights)
    assert np.allclose(convolve(mu, de).weights, mu.weights)


def test_point_mass_convolution(order10):
    rng = np.random.default_rng(3)
    elems = list(order10.elements())
    for _ in range(20):
        x, y = elems[rng.integers(10)], elems[rng.integers(10)]
        got = convolve(delta(order10, x), delta(order10, y))
        assert np.allclose(got.weights, delta(order10, multiply(order10, x, y)).weights)


def test_uniform_convolution_idempotent(order10):
    u = uniform(order10)
    got = convolve(u, u)
    assert np.allclose(got.weights, u.weights, atol=1e-14)
    assert np.allclose(oracle_convolve(order10, u, u), u.weights, atol=1e-14)


def test_convolution_matches_oracle(order10, order21, order18, order72):
    rng = np.random.default_rng(11)
    for g in (order10, order21, order18, rotation_group(4), order72):
        for sparse in (False, True):
            mu = random_measure(g, rng, sparse)
            nu = random_measure(g, rng, sparse)
            assert np.allclose(convolve(mu, nu).weights, oracle_convolve(g, mu, nu),
                               atol=1e-12)


def test_convolve_keeps_the_two_index_gather_formula_bit_for_bit(order10, order72):
    # the formula before the product moved to a flat gather index: fftn of
    # each factor, a two-index gather through dual_table, einsum, ifftn
    def two_index(mu, nu):
        g = mu.group
        n, d, nk = g.abelian.modulus, g.abelian.rank, g.k.order
        shape, axes = (n,) * d + (nk,), tuple(range(d))
        f = np.fft.fftn(mu.weights.reshape(shape), axes=axes).reshape(-1, nk)
        h = np.fft.fftn(nu.weights.reshape(shape), axes=axes).reshape(-1, nk)
        inv = g.k.inverses
        moved = h[dual_table(g)[:, inv, None], g.k.table[inv][None, :, :]]
        out = np.einsum("xj,xjk->xk", f, moved)
        return np.fft.ifftn(out.reshape(shape), axes=axes).reshape(-1)

    rng = np.random.default_rng(13)
    # Z_16 acting trivially on Z_8 gives the product a long K axis
    for g in (order10, order72, rotation_group(4), scaling_group(8, 1, 16)):
        for sparse in (False, True):
            mu, nu = random_measure(g, rng, sparse), random_measure(g, rng, sparse)
            assert (convolve(mu, nu).weights == two_index(mu, nu)).all()


def test_convolution_associative_and_bilinear(order10):
    rng = np.random.default_rng(5)
    a, b, c = (random_measure(order10, rng) for _ in range(3))
    lhs = convolve(convolve(a, b), c).weights
    rhs = convolve(a, convolve(b, c)).weights
    assert np.allclose(lhs, rhs, atol=1e-12)
    got = convolve(a, b + 2.0 * c).weights
    want = (convolve(a, b) + 2.0 * convolve(a, c)).weights
    assert np.allclose(got, want, atol=1e-12)


def test_group_mismatch_raises(order10, order21):
    with pytest.raises(GroupMismatch):
        convolve(uniform(order10), uniform(order21))


def test_tv_norm_examples(order10):
    x = GElem((3,), 1)
    assert tv_norm(delta(order10, x)) == 1.0
    assert tv_norm(delta(order10, x) - delta(order10, order10.identity())) == 2.0


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_tv_submultiplicative(seed):
    g = negation_group(5)
    rng = np.random.default_rng(seed)
    mu, nu = random_measure(g, rng), random_measure(g, rng)
    assert tv_norm(convolve(mu, nu)) <= tv_norm(mu) * tv_norm(nu) + 1e-9


def test_push_k_examples(order10):
    mu = delta(order10, GElem((2,), 1))
    assert np.allclose(push_k(mu), [0, 1])
    assert np.allclose(push_k(uniform(order10)), [0.5, 0.5])


def test_push_k_homomorphism(order10, order20):
    rng = np.random.default_rng(17)
    for g in (order10, order20):
        mu, nu = random_measure(g, rng), random_measure(g, rng)
        lhs = push_k(convolve(mu, nu))
        pk_mu, pk_nu = push_k(mu), push_k(nu)
        # independent K-side convolution straight from the table
        rhs = np.zeros(g.k.order, dtype=np.complex128)
        for i in range(g.k.order):
            for j in range(g.k.order):
                rhs[g.k.table[i, j]] += pk_mu[i] * pk_nu[j]
        assert np.allclose(lhs, rhs, atol=1e-12)


def test_push_k_kernel_matches_lambda0_kernel(order10):
    # ker(pi_K) = ker(mu -> mu_hat(Lambda_0)) as linear subspaces of weights
    from motionwalk.reps import fourier

    g = order10
    zero = Character((0,))
    push_mat = np.zeros((g.k.order, g.size), dtype=np.complex128)
    hat_mat = np.zeros((g.k.order ** 2, g.size), dtype=np.complex128)
    for i in range(g.size):
        e = np.zeros(g.size)
        e[i] = 1.0
        mu = from_weights(g, e)
        push_mat[:, i] = push_k(mu)
        hat_mat[:, i] = fourier(mu, zero).ravel()
    assert np.linalg.matrix_rank(push_mat, tol=1e-10) == g.k.order
    assert np.linalg.matrix_rank(hat_mat, tol=1e-10) == g.k.order
    # same row space implies same kernel
    combined = np.vstack([push_mat, hat_mat])
    assert np.linalg.matrix_rank(combined, tol=1e-10) == g.k.order


def test_central_measure_order10(order10):
    s = {Character((1,)), Character((4,))}
    nu = central_measure(order10, s)
    # h(a) = (2/5) cos(2 pi a / 5), supported on K identity
    for a in range(5):
        want = (2.0 / 5.0) * np.cos(2 * np.pi * a / 5)
        assert abs(nu.weights[a * 2 + 0] - want) < 1e-14
        assert nu.weights[a * 2 + 1] == 0
    # commutes with every point mass, exhaustively
    for x in order10.elements():
        dm = delta(order10, x)
        assert np.allclose(convolve(nu, dm).weights, convolve(dm, nu).weights,
                           atol=1e-13)


def test_central_measure_full_complement(order10):
    s = {Character((a,)) for a in range(1, 5)}
    nu = central_measure(order10, s)
    # h = indicator(a=0) - 1/5
    want = np.zeros(10, dtype=complex)
    for a in range(5):
        want[a * 2] = (1.0 if a == 0 else 0.0) - 0.2
    assert np.allclose(nu.weights, want, atol=1e-14)


def test_central_measure_empty(order10):
    nu = central_measure(order10, set())
    assert np.all(nu.weights == 0)


def test_central_measure_errors(order10):
    with pytest.raises(ContainsZeroCharacter):
        central_measure(order10, {Character((0,)), Character((1,)), Character((4,))})
    with pytest.raises(NotOrbitClosed):
        central_measure(order10, {Character((1,))})


def test_mean_zero_basis(order10):
    basis = mean_zero_basis(order10)
    assert len(basis) == 9
    for f in basis:
        assert abs(f.weights.sum()) < 1e-15
    # any mean-zero vector is reproduced by its coefficients at x != e
    rng = np.random.default_rng(23)
    w = rng.normal(size=10) + 1j * rng.normal(size=10)
    w[order10.index(order10.identity())] -= w.sum()
    recon = np.zeros(10, dtype=np.complex128)
    e_idx = order10.index(order10.identity())
    for f in basis:
        x_idx = [i for i in f.support() if i != e_idx][0]
        recon += w[x_idx] * f.weights
    assert np.allclose(recon, w, atol=1e-12)


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.inf)],
                         ids=["nan", "inf", "complex-inf"])
def test_non_finite_weights_rejected(order10, bad):
    w = np.full(10, 0.1, dtype=np.complex128)
    w[3] = bad
    with pytest.raises(ValueError, match="finite"):
        GroupMeasure(order10, w)


def test_probability_validation(order10):
    assert is_probability(uniform(order10))
    require_probability(uniform(order10))
    # uniform over the distinct elements: a repeat adds no mass
    x, y = GElem((1,), 0), GElem((2,), 1)
    mu = uniform_on(order10, [x, x, y])
    assert is_probability(mu)
    assert np.array_equal(mu.weights, uniform_on(order10, [y, x]).weights)
    bad = from_weights(order10, np.full(10, 0.1 + 0.01j))
    assert not is_probability(bad)
    with pytest.raises(NotProbability):
        require_probability(bad)
    with pytest.raises(NotProbability):
        require_probability(from_weights(order10, np.full(10, 0.2)))
