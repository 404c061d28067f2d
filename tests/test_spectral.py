"""Spectral radius, Gelfand radius, star norm, and the radius formula."""
from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import motionwalk.classify
import motionwalk.groups
import motionwalk.reps
import motionwalk.spectral
from motionwalk.classify import cross_check
from motionwalk.groups import GElem, MotionGroup, dual_orbits, inverse, multiply
from motionwalk.measures import _weights, delta, from_weights, tv_norm, uniform
from motionwalk.reps import compress_to_complement, fourier
from motionwalk.spectral import (
    SINGULAR_REASON,
    SVD_SLICE_ENTRIES,
    _block_spectra,
    _singular_extremes,
    gelfand_radius,
    gelfand_sequence,
    one_in_spectrum,
    op_norm,
    orbit_spectra,
    spectral_radius,
    verify_srf,
)
from motionwalk.suite import acceptance_suite

from conftest import (
    d4_group,
    negation_group,
    rotation_group,
    scaling_group,
    swap_group,
    trivial_group,
)
from oracles import convolve, convolve_gelfand_sequence


def convolution_operator(g, mu):
    """|G| x |G| matrix of nu -> mu * nu; an independent spectral oracle."""
    m = np.zeros((g.size, g.size), dtype=np.complex128)
    for zi, z in enumerate(g.elements()):
        for xi, x in enumerate(g.elements()):
            m[zi, xi] = mu.weights[g.index(multiply(g, z, inverse(g, x)))]
    return m


def test_spectral_radius_frozen_values():
    assert spectral_radius(np.array([[0.0, 7.0], [0.0, 0.0]])) == 0.0
    assert abs(spectral_radius(np.diag([0.5, 0.3j])) - 0.5) < 1e-12
    companion = np.array([[0.0, 1.0], [1.0, 4.0]])
    assert abs(spectral_radius(companion) - (2.0 + math.sqrt(5.0))) < 1e-9
    assert spectral_radius(np.zeros((0, 0))) == 0.0


BAD_INPUTS = {
    "nan": np.array([[np.nan, 0.0], [0.0, 1.0]]),
    "inf": np.array([[np.inf, 0.0], [0.0, 1.0]]),
    "1-d": np.ones(3),
    "non-square": np.ones((2, 3)),
}


@pytest.mark.parametrize("f, bad", [
    (f, bad) for f in (spectral_radius, op_norm, one_in_spectrum) for bad in BAD_INPUTS
    if bad != "non-square" or f is not op_norm
], ids=lambda v: getattr(v, "__name__", v))
def test_spectral_functions_reject_bad_input(f, bad):
    with pytest.raises(ValueError):
        f(BAD_INPUTS[bad])


def test_op_norm_accepts_rectangular():
    assert abs(op_norm(np.ones((2, 3))) - math.sqrt(6.0)) < 1e-12
    assert np.allclose(op_norm(np.ones((4, 2, 3))), math.sqrt(6.0), atol=1e-12)


def _stacks():
    rng = np.random.default_rng(53)
    blocks = rng.normal(size=(6, 4, 4)) + 1j * rng.normal(size=(6, 4, 4))
    # upper triangular with a 1 on the diagonal: eigenvalue exactly 1
    blocks[2] = np.triu(blocks[2])
    blocks[2, 1, 1] = 1.0
    return {"random": blocks, "one-element": blocks[:1], "empty-blocks": np.zeros((3, 0, 0))}


@pytest.mark.parametrize("name", ["random", "one-element", "empty-blocks"])
def test_stacked_values_equal_per_block_values(name):
    stack = _stacks()[name]
    assert np.array_equal(spectral_radius(stack), [spectral_radius(b) for b in stack])
    assert np.array_equal(op_norm(stack), [op_norm(b) for b in stack])
    got, want = one_in_spectrum(stack), [one_in_spectrum(b) for b in stack]
    assert np.array_equal(got.verdict, [r.verdict for r in want])
    assert np.array_equal(got.margin, [r.margin for r in want])
    if name == "random":
        assert got.verdict.tolist() == [False, False, True, False, False, False]


def test_singular_extremes_in_slices_equal_one_call_and_copy_one_slice():
    # 2 x 2^13 blocks of 4 x 4 span eight slices: every value is the one
    # svd call on the whole stack [a; I - a] gives, and a call copies one
    # slice at a time (2 MB traced), where one call on the whole stack
    # held 13 MB, over three times a itself
    rng = np.random.default_rng(59)
    a = rng.normal(size=(2, 1 << 13, 4, 4)) + 1j * rng.normal(size=(2, 1 << 13, 4, 4))
    assert a.size == 8 * SVD_SLICE_ENTRIES
    s = np.linalg.svd(np.stack([a, np.eye(4) - a]), compute_uv=False)
    tracemalloc.start()
    try:
        norms, margins = _singular_extremes(a)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(norms, s[0].max(axis=-1))
    assert np.array_equal(margins, s[1].min(axis=-1))
    assert np.array_equal(op_norm(a), norms)
    assert np.array_equal(one_in_spectrum(a).margin, margins)
    assert peak < a.nbytes, peak


def test_single_matrix_gives_python_scalars():
    m = _stacks()["random"][2]
    assert type(spectral_radius(m)) is float
    assert type(op_norm(m)) is float
    r = one_in_spectrum(m)
    assert type(r.verdict) is bool and type(r.margin) is float
    assert type(spectral_radius(np.zeros((0, 0)))) is float


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10**6), n=st.integers(1, 8))
def test_radius_bounded_by_op_norm(seed, n):
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    assert spectral_radius(m) <= op_norm(m) + 1e-10
    h = m + m.conj().T
    assert abs(spectral_radius(h) - op_norm(h)) < 1e-9


def test_one_in_spectrum_frozen():
    r = one_in_spectrum(np.eye(3))
    assert r.verdict and r.margin < 1e-14
    r = one_in_spectrum(np.zeros((2, 2)))
    assert not r.verdict and abs(r.margin - 1.0) < 1e-14
    r = one_in_spectrum(np.zeros((0, 0)))
    assert not r.verdict and r.margin == math.inf


def test_one_in_spectrum_probability_block(order10, order21):
    # a probability measure fixes constants inside the zero-orbit block
    rng = np.random.default_rng(31)
    for g in (order10, order21):
        w = rng.random(g.size)
        mu = from_weights(g, w / w.sum())
        zero = dual_orbits(g)[0].representative
        r = one_in_spectrum(fourier(mu, zero))
        assert r.verdict and r.margin < 1e-12


def test_margin_below_eigen_distance(order10):
    rng = np.random.default_rng(37)
    for _ in range(10):
        m = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
        eigen_distance = np.abs(np.linalg.eigvals(m) - 1.0).min()
        assert one_in_spectrum(m).margin <= eigen_distance + 1e-10


def test_gelfand_point_mass_and_probability(order10):
    assert abs(gelfand_radius(delta(order10, GElem((3,), 1))) - 1.0) < 1e-12
    rng = np.random.default_rng(41)
    w = rng.random(10)
    mu = from_weights(order10, w / w.sum())
    assert abs(gelfand_radius(mu) - 1.0) < 1e-12
    assert gelfand_radius(from_weights(order10, np.zeros(10))) == 0.0


def test_gelfand_order_two_difference(z2):
    g = GElem((1,), 0)
    mu = delta(z2, g) - delta(z2, z2.identity())
    # mu*mu = -2 mu, so every doubling estimate equals 2 exactly
    seq = gelfand_sequence(mu, 6)
    assert seq == [2.0] * 7
    assert gelfand_radius(mu) == 2.0
    assert abs(spectral_radius(convolution_operator(z2, mu)) - 2.0) < 1e-12


@pytest.mark.parametrize("maker", [lambda: negation_group(5), lambda: d4_group(3),
                                   lambda: rotation_group(4), lambda: scaling_group(8, 1, 16)],
                         ids=["order10", "d4_3", "rotation4", "z16_on_z8"])
def test_gelfand_sequence_matches_convolution_chain(maker):
    g = maker()
    rng = np.random.default_rng(71)
    w = rng.normal(size=g.size) + 1j * rng.normal(size=g.size)
    probability = rng.random(g.size)
    for mu in (from_weights(g, w), from_weights(g, probability / probability.sum())):
        got, want = gelfand_sequence(mu, 20), convolve_gelfand_sequence(mu, 20)
        assert len(got) == len(want) == 21
        for a, b in zip(got, want):
            assert abs(a - b) <= 1e-13 * b, (a, b)


def test_gelfand_chain_never_reads_the_block_stack(monkeypatch):
    # the Gelfand side of the radius formula must be its own route: a
    # chain through the blocks would agree with any stack, right or wrong
    def refuse(*args, **kwargs):
        raise AssertionError("the Gelfand chain read the block stack")

    monkeypatch.setattr(motionwalk.reps, "_blocks", refuse)
    monkeypatch.setattr(motionwalk.reps, "_measure_of_blocks", refuse)
    monkeypatch.setattr(motionwalk.spectral, "_blocks", refuse)
    monkeypatch.setattr(motionwalk.groups, "dual_orbits", refuse)
    monkeypatch.setattr(MotionGroup, "_representatives", property(refuse))
    g = rotation_group(4)
    rng = np.random.default_rng(73)
    w = rng.normal(size=g.size) + 1j * rng.normal(size=g.size)
    mu = from_weights(g, w / np.abs(w).sum())
    seq = gelfand_sequence(mu, 12)
    for a, b in zip(seq, convolve_gelfand_sequence(mu, 12)):
        assert abs(a - b) <= 1e-13 * b
    assert gelfand_radius(mu, kmax=12) == seq[12]


def test_gelfand_reads_the_tv_norm_only_where_it_reports(monkeypatch):
    # the inverse FFT for the TV norm runs at reported steps only: once for
    # gelfand_radius, once per step for gelfand_sequence
    calls = []

    def counted(g, h):
        calls.append(h.shape)
        return _weights(g, h)

    monkeypatch.setattr(motionwalk.spectral, "_weights", counted)
    g = rotation_group(4)
    rng = np.random.default_rng(79)
    mu = from_weights(g, rng.normal(size=g.size) + 1j * rng.normal(size=g.size))
    for k in (1, 12, 20):
        calls.clear()
        gelfand_radius(mu, k)
        assert len(calls) == 1
        calls.clear()
        gelfand_sequence(mu, k)
        assert len(calls) == k


@pytest.mark.parametrize("maker", [lambda: negation_group(5), lambda: d4_group(3),
                                   lambda: rotation_group(4)],
                         ids=["order10", "d4_3", "rotation4"])
@pytest.mark.parametrize("k", [1, 12, 20])
def test_gelfand_radius_is_the_last_sequence_entry(maker, k):
    g = maker()
    rng = np.random.default_rng(83)
    w = rng.normal(size=g.size) + 1j * rng.normal(size=g.size)
    mu = from_weights(g, w / np.abs(w).sum())
    assert gelfand_radius(mu, k) == gelfand_sequence(mu, k)[k]


@pytest.mark.parametrize("e", [900, -900])
def test_gelfand_radius_scales_with_the_measure(e):
    g = d4_group(3)
    rng = np.random.default_rng(89)
    w = rng.normal(size=g.size) + 1j * rng.normal(size=g.size)
    mu = from_weights(g, w / np.abs(w).sum())
    want = math.ldexp(gelfand_radius(mu), e)
    assert abs(gelfand_radius(math.ldexp(1.0, e) * mu) - want) <= 1e-13 * want


def test_gelfand_chain_keeps_a_small_radius_in_range():
    # radius 1e-3, under a quarter of the TV norm: unscaled, the powers of
    # mu / tv_norm(mu) underflow long before 2^20, and the chain must still
    # match the renormalized convolve chain at every step
    g = rotation_group(4)
    rng = np.random.default_rng(97)
    w = rng.normal(size=g.size) + 1j * rng.normal(size=g.size)
    mu = from_weights(g, w * (1e-3 / verify_srf(from_weights(g, w)).formula_radius))
    assert (1e-3 / tv_norm(mu)) ** (1 << 20) == 0.0
    seq = gelfand_sequence(mu, 20)
    for a, b in zip(seq, convolve_gelfand_sequence(mu, 20)):
        assert abs(a - b) <= 1e-13 * b, (a, b)
    rep = verify_srf(mu)
    assert rep.gelfand_radius_estimate == seq[20]
    assert abs(seq[20] - 1e-3) <= 1e-6 and rep.passed


def test_gelfand_sequence_non_increasing(order10, order16):
    rng = np.random.default_rng(43)
    for g in (order10, order16):
        for _ in range(5):
            w = rng.normal(size=g.size) + 1j * rng.normal(size=g.size)
            mu = from_weights(g, w / np.abs(w).sum())
            seq = gelfand_sequence(mu, 18)
            for a, b in zip(seq, seq[1:]):
                assert b <= a + 1e-12


def test_gelfand_matches_convolution_operator_spectrum(order10, order20):
    rng = np.random.default_rng(47)
    for g in (order10, order20):
        for _ in range(4):
            w = rng.normal(size=g.size) + 1j * rng.normal(size=g.size)
            mu = from_weights(g, w / np.abs(w).sum())
            oracle = spectral_radius(convolution_operator(g, mu))
            est = gelfand_radius(mu, kmax=26)
            assert oracle - 1e-10 <= est <= oracle + 1e-6


def test_gelfand_dominates_block_radii(order10, order18):
    rng = np.random.default_rng(53)
    for g in (order10, order18):
        w = rng.normal(size=g.size) + 1j * rng.normal(size=g.size)
        mu = from_weights(g, w / np.abs(w).sum())
        block = max(spectral_radius(fourier(mu, o.representative)) for o in dual_orbits(g))
        assert gelfand_radius(mu) >= block - 1e-9


def test_star_norm(order10):
    def star_norm(mu):
        return verify_srf(mu).star_norm

    assert abs(star_norm(delta(order10, GElem((2,), 1))) - 1.0) < 1e-12
    assert abs(star_norm(uniform(order10)) - 1.0) < 1e-12
    rng = np.random.default_rng(59)
    for _ in range(10):
        w = rng.normal(size=10) + 1j * rng.normal(size=10)
        mu = from_weights(order10, w)
        assert star_norm(mu) <= tv_norm(mu) + 1e-10


def test_one_spectral_pass_reads_the_dual_orbits_once(monkeypatch):
    calls = []
    cached = MotionGroup._representatives

    def counted(g):
        calls.append(g)
        return cached.__get__(g)

    # classify reads the representatives only through orbit_spectra and the
    # group's cached tables, which read them once when they are built: built
    # here, before the count starts
    g = rotation_group(4)
    g._block_index, g._phase_orders
    monkeypatch.setattr(MotionGroup, "_representatives", property(counted))
    rng = np.random.default_rng(67)
    w = rng.normal(size=g.size) + 1j * rng.normal(size=g.size)
    orbit_spectra(from_weights(g, w))
    assert len(calls) == 1
    calls.clear()
    cross_check(uniform(g))
    assert len(calls) == 1


def test_cross_check_makes_two_svd_calls(monkeypatch):
    # _block_spectra takes the norms and margins of a stack from one svd call
    # on [B; I - B] and the radii from one eigvals call: one of each for the
    # orbit stack and one of each for the complement
    calls = dict.fromkeys(("svd", "eigvals"), 0)

    def counted(name, f):
        def call(*args, **kwargs):
            calls[name] += 1
            return f(*args, **kwargs)
        return call

    for name in calls:
        monkeypatch.setattr(np.linalg, name, counted(name, getattr(np.linalg, name)))
    cross_check(uniform(rotation_group(4)))
    assert calls == {"svd": 2, "eigvals": 2}


def _suite_and_dense_blocks():
    """(group, block stack) of the 200 suite cases as cross_check builds
    them, and of 5 dense complex measures on rotation_group(24) as
    orbit_spectra does."""
    for case in acceptance_suite():
        g = case.measure.group
        yield g, motionwalk.reps._blocks(g, case.measure.weights.real)
    g = rotation_group(24)
    rng = np.random.default_rng(2304)
    for _ in range(5):
        w = rng.normal(size=g.size) + 1j * rng.normal(size=g.size)
        yield g, motionwalk.reps._blocks(g, (w / np.abs(w).sum())[g.inv_perm()])


def test_block_spectra_records_equal_separate_calls():
    # the shared svd call gives each record the bits of op_norm and
    # one_in_spectrum called on their own stacks
    for g, blocks in _suite_and_dense_blocks():
        per_orbit, comp = _block_spectra(g, blocks)
        for records, stack in ((per_orbit, blocks),
                               ((comp,), compress_to_complement(g, blocks[0])[None])):
            ois = one_in_spectrum(stack)
            assert [r.spectral_radius for r in records] == spectral_radius(stack).tolist()
            assert [r.op_norm for r in records] == op_norm(stack).tolist()
            assert [r.margin for r in records] == ois.margin.tolist()
            assert [r.one_in_spectrum for r in records] == ois.verdict.tolist()


def test_power_consistency(order10):
    rng = np.random.default_rng(61)
    w = rng.normal(size=10) + 1j * rng.normal(size=10)
    mu = from_weights(order10, w / np.abs(w).sum())
    mu3 = convolve(convolve(mu, mu), mu)
    for orb in dual_orbits(order10):
        b = fourier(mu, orb.representative)
        lhs = spectral_radius(np.linalg.matrix_power(b, 3))
        rhs = spectral_radius(fourier(mu3, orb.representative))
        assert abs(lhs - rhs) < 1e-9


def test_verify_srf_delta_identity(order10):
    rep = verify_srf(delta(order10, order10.identity()))
    assert abs(rep.gelfand_radius_estimate - 1.0) < 1e-12
    assert abs(rep.formula_radius - 1.0) < 1e-12
    assert rep.formula_gap < 1e-12 and rep.passed
    assert rep.singular_term == 0.0 and rep.singular_reason == SINGULAR_REASON


def test_verify_srf_order_two_difference(z2):
    mu = delta(z2, GElem((1,), 0)) - delta(z2, z2.identity())
    rep = verify_srf(mu)
    assert abs(rep.gelfand_radius_estimate - 2.0) < 1e-12
    assert abs(rep.formula_radius - 2.0) < 1e-12
    assert rep.passed


def test_verify_srf_random_sweep():
    groups = [trivial_group(4), negation_group(5), negation_group(8),
              scaling_group(7, 2, 3), rotation_group(4)]
    for gi, g in enumerate(groups):
        rng = np.random.default_rng(500 + gi)
        for _ in range(6):
            w = rng.normal(size=g.size) + 1j * rng.normal(size=g.size)
            mu = from_weights(g, w / np.abs(w).sum())
            rep = verify_srf(mu, tol=1e-6, kmax=20)
            assert rep.formula_gap <= 1e-6, (gi, rep.formula_gap)
            assert rep.passed
            assert rep.formula_gap == abs(rep.gelfand_radius_estimate
                                          - rep.formula_radius)
            assert len(rep.per_orbit) == len(dual_orbits(g))


def test_verify_srf_sparse_complex_measures():
    # a first square without cancellation leaves the TV norm unchanged, so
    # the Gelfand estimate must not stop when two estimates agree
    rng = np.random.default_rng(1)
    for g in (negation_group(5), swap_group(3), scaling_group(7, 2, 3)):
        for _ in range(100):
            atoms = rng.choice(g.size, size=rng.integers(2, 5), replace=False)
            w = np.zeros(g.size, dtype=np.complex128)
            w[atoms] = rng.normal(size=atoms.size) + 1j * rng.normal(size=atoms.size)
            rep = verify_srf(from_weights(g, w / np.abs(w).sum()))
            assert rep.passed, (g.size, atoms.tolist(), rep.formula_gap)


@pytest.mark.parametrize("maker, s", [(lambda: negation_group(5), 1),
                                      (lambda: rotation_group(24), 2)])
def test_verify_srf_nilpotent_measure(maker, s):
    # mu = (e + s) * t * (e - s) = t - ts + st - sts with s^2 = e squares to
    # exactly zero; the FFT product leaves only rounding, far below tol
    g = maker()
    flip = GElem((0,) * g.abelian.rank, s)
    t = GElem((1,) + (0,) * (g.abelian.rank - 1), 0)
    st_ = multiply(g, flip, t)
    mu = (delta(g, t) - delta(g, multiply(g, t, flip))
          + delta(g, st_) - delta(g, multiply(g, st_, flip)))
    assert tv_norm(mu) == 4.0
    assert tv_norm(convolve(mu, mu)) <= 1e-12
    rep = verify_srf(mu)
    assert rep.passed, rep.formula_gap
    assert rep.gelfand_radius_estimate <= 1e-6


def test_verify_srf_report_serializes(order10):
    rep = verify_srf(uniform(order10))
    d = rep.to_dict()
    assert set(d) == {"gelfand_radius_estimate", "per_orbit",
                      "lambda0_complement", "star_norm", "singular_term",
                      "singular_reason", "formula_gap", "tol", "passed"}
    assert d["per_orbit"][0]["representative"] == [0]
    assert isinstance(d["lambda0_complement"]["margin"], float)
