"""Condition checks: spectral, structural, and empirical classification."""
from __future__ import annotations

import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from motionwalk import classify, measures
from motionwalk.classify import (
    AdaptedResult,
    AperiodicResult,
    TriState,
    _decide,
    _row_max,
    _weak_mixing_verdict,
    adapted,
    check_s,
    check_sr,
    cross_check,
    empirical_ergodic,
    empirical_mixing,
    empirical_weak_mixing,
    strictly_aperiodic_check,
)
from motionwalk.errors import EmptySupport, NotProbability
from motionwalk.groups import GElem, dual_orbits, products
from motionwalk.measures import delta, from_weights, uniform, uniform_on
from motionwalk.reps import _blocks
from motionwalk.suite import acceptance_suite

from conftest import (
    d4_group,
    negation_group,
    rotation_group,
    scaling_group,
    swap_group,
    trivial_group,
)
from oracles import (convolve_powers, lambda_elem, per_step_points, per_step_weak_mixing, structure,
                     translate_gaps)


def two_atom_walk(g):
    """Half a unit translation, half the bare flip."""
    return 0.5 * delta(g, GElem((1,), 0)) + 0.5 * delta(g, GElem((0,), 1))


def coset_walk(g):
    """Uniform on the nonidentity fiber A x {s} of a negation group."""
    elems = [GElem((a,), 1) for a in range(g.abelian.modulus)]
    return uniform_on(g, elems)


def five_atom_walk(g):
    """0.5/0.2/0.1/0.1/0.1 on the identity, ((1, 0), 0), ((0, 0), 1),
    ((5, 9), 3) and ((-1, 2), 2) of a rotation_group(n), n >= 10: it mixes,
    slowly."""
    n = g.abelian.modulus
    w = np.zeros(g.size)
    atoms = [((0, 0), 0), ((1, 0), 0), ((0, 0), 1), ((5, 9), 3), ((n - 1, 2), 2)]
    for (a, k), weight in zip(atoms, [0.5, 0.2, 0.1, 0.1, 0.1]):
        w[g.index(GElem(a, k))] = weight
    return from_weights(g, w)


def lazy_perturbed(g, h):
    return (1.0 - h) * delta(g, g.identity()) + h * uniform(g)


def test_check_sr_uniform_and_delta(order10):
    r = check_sr(uniform(order10))
    assert r.verdict == TriState.HOLDS
    assert all(rec.value < 1e-13 for rec in r.records)
    r = check_sr(delta(order10, order10.identity()))
    assert r.verdict == TriState.FAILS
    assert abs(r.witness.value - 1.0) < 1e-12


def test_check_sr_two_atom_walk(order10):
    mu = two_atom_walk(order10)
    r = check_sr(mu)
    assert r.verdict == TriState.HOLDS
    radii = sorted(rec.value for rec in r.records if not rec.is_complement)
    assert abs(radii[0] - math.cos(2 * math.pi / 5)) < 1e-12
    assert abs(radii[1] - abs(math.cos(4 * math.pi / 5))) < 1e-12
    comp = [rec for rec in r.records if rec.is_complement]
    assert len(comp) == 1 and comp[0].value < 1e-13


def test_check_sr_guard_band(order10):
    # block radii of the lazy perturbation equal 1-h exactly
    assert check_sr(lazy_perturbed(order10, 2e-8)).verdict == TriState.HOLDS
    assert check_sr(lazy_perturbed(order10, 9.4e-9)).verdict == TriState.INDETERMINATE
    assert check_sr(lazy_perturbed(order10, 5e-9)).verdict == TriState.FAILS


def test_check_s_basic(order10):
    assert check_s(uniform(order10)).verdict == TriState.HOLDS
    r = check_s(two_atom_walk(order10))
    assert r.verdict == TriState.HOLDS
    assert r.witness.value > 0.1


def test_check_s_subgroup_uniform_fails_at_complement(order10):
    sub = uniform_on(order10, [GElem((a,), 0) for a in range(5)])
    r = check_s(sub)
    assert r.verdict == TriState.FAILS
    assert r.witness.is_complement and r.witness.value < 1e-13


def test_check_s_coset_walk(order10):
    r = check_s(coset_walk(order10))
    assert r.verdict == TriState.HOLDS
    assert abs(r.witness.value - 1.0) < 1e-12    # zero blocks give margin 1


def test_check_s_guard_band(order10):
    assert check_s(lazy_perturbed(order10, 2e-8)).verdict == TriState.HOLDS
    assert check_s(lazy_perturbed(order10, 5e-9)).verdict == TriState.INDETERMINATE
    assert check_s(lazy_perturbed(order10, 1e-9)).verdict == TriState.FAILS


def test_spectral_checks_require_probability(order10):
    bad = from_weights(order10, np.full(10, 0.2))
    for op in (check_sr, check_s, adapted, empirical_mixing,
               empirical_ergodic, empirical_weak_mixing):
        with pytest.raises(NotProbability):
            op(bad)


def test_adapted(order10):
    r = adapted(delta(order10, order10.identity()))
    assert not r.adapted and r.subgroup_size == 1
    assert adapted(uniform(order10)).adapted
    r = adapted(delta(order10, GElem((1,), 0)))
    assert not r.adapted and r.subgroup_size == 5
    r = adapted(two_atom_walk(order10))
    assert r.adapted and r.subgroup_size == 10


def test_adapted_on_large_group_builds_no_mult_table(no_mult_table):
    # |G| = 65536, where the dense table would take 16 GiB: the closure
    # reads only the right products of the generators
    g = rotation_group(128)
    w = np.zeros(g.size)
    w[[g.index(g.identity()), g.index(GElem((1, 0), 0)), g.index(GElem((0, 0), 1))]] = 1 / 3
    assert adapted(from_weights(g, w)) == AdaptedResult(True, g.size)
    w[g.index(GElem((0, 0), 1))] = 0.0
    w[g.index(GElem((0, 0), 2))] = 1 / 3
    # the half-turn maps (1, 0) to its negative: only the first axis is reached
    assert adapted(from_weights(g, w)) == AdaptedResult(False, 2 * 128)


def test_cross_check_builds_no_mult_table(no_mult_table):
    # every stage of cross_check reads the group law through products
    g = rotation_group(16)
    v = cross_check(five_atom_walk(g))
    assert v.adapted == AdaptedResult(True, g.size)
    assert v.strictly_aperiodic.strictly_aperiodic
    assert v.sr.verdict == TriState.HOLDS
    assert v.empirical_mixing.verdict == "MIXING"
    assert v.consistency == ()


def test_cross_check_builds_no_inverse_permutation():
    # s0^-1 and the conjugators' inverses come one element at a time, and
    # the spectral checks read the unreflected blocks: no |G|-sized table
    # of inverses is built
    g = rotation_group(16)
    cross_check(five_atom_walk(g))
    assert "_inv_perm" not in vars(g)


def test_cross_check_transforms_and_sweeps_once(monkeypatch):
    # the spectral checks and the three curves share one A-Fourier
    # transform, one block stack, one power chain and one read-back
    calls = {}

    def counted(name, f):
        def call(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return f(*args, **kwargs)
        return call

    names = ("_blocks", "_dyadic_powers", "_measure_of_blocks")
    for name in names:
        monkeypatch.setattr(classify, name, counted(name, getattr(classify, name)))
    original = measures._transform
    transform = counted("_transform", original)
    for module in list(sys.modules.values()):
        if getattr(module, "_transform", None) is original:
            monkeypatch.setattr(module, "_transform", transform)
    for name in ("fftn", "ifftn"):
        monkeypatch.setattr(np.fft, name, counted(name, getattr(np.fft, name)))
    v = cross_check(five_atom_walk(rotation_group(16)))
    assert calls == dict.fromkeys(names + ("_transform", "fftn", "ifftn"), 1)
    assert len(v.empirical_mixing.points) == 11 and len(v.empirical_ergodic.points) == 10


@pytest.mark.parametrize("mixing_n_max, ergodic_n_max", [(1024, 512), (64, 1024), (1, 1)])
def test_curves_do_not_depend_on_the_batch_bound(monkeypatch, mixing_n_max, ergodic_n_max):
    # every row and Gram sum reduced alone, the default batches, and one
    # batch each: the same curves, bit for bit
    measures = [case.measure for case in acceptance_suite()]
    measures += [five_atom_walk(rotation_group(16)), five_atom_walk(rotation_group(48))]
    curves = {}
    for bound in (1, classify.CURVE_BATCH_ENTRIES, 2 ** 62):
        monkeypatch.setattr(classify, "CURVE_BATCH_ENTRIES", bound)
        vs = [cross_check(mu, mixing_n_max=mixing_n_max, ergodic_n_max=ergodic_n_max)
              for mu in measures]
        curves[bound] = [(v.empirical_mixing, v.empirical_ergodic, v.weak_mixing_empirical)
                         for v in vs]
    first, *rest = curves.values()
    for other in rest:
        assert other == first


def test_curves_hold_a_few_stacks_past_the_batch_bound():
    # |G| = 16384: each row and each Gram sum passes CURVE_BATCH_ENTRIES.
    # Besides its input the peak is a doubling's G_n and its two products
    # (3 Gram tensors, 12 block stacks), with P^n, S_n and the conjugate of
    # P^n: 15.0 stacks. Reading all 21 rows back at once held 111
    g = rotation_group(64)
    p = _blocks(g, five_atom_walk(g).weights.real)
    g._phase_orders
    tracemalloc.start()
    try:
        classify._curves(g, p, classify.MIXING_N_MAX, classify.CESARO_N_MAX)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * p.nbytes


@pytest.mark.parametrize("maker", [lambda: negation_group(5), lambda: d4_group(3)],
                         ids=["order10", "d4_3"])
@pytest.mark.parametrize("mixing_n_max, ergodic_n_max",
                         [(1024, 512), (64, 512), (256, 1024), (1, 1)])
def test_cross_check_curves_match_each_empirical_check(maker, mixing_n_max, ergodic_n_max):
    # the shared chain runs to the larger budget; each curve stops at its own
    g = maker()
    rng = np.random.default_rng(g.size)
    w = rng.random(g.size) * (rng.random(g.size) < 0.3) + np.eye(g.size)[1]
    mu = from_weights(g, w / w.sum())
    v = cross_check(mu, mixing_n_max=mixing_n_max, ergodic_n_max=ergodic_n_max)
    assert v.empirical_mixing == empirical_mixing(mu, mixing_n_max)
    assert v.empirical_ergodic == empirical_ergodic(mu, ergodic_n_max)
    assert v.weak_mixing_empirical == empirical_weak_mixing(mu, ergodic_n_max)
    assert v.empirical_mixing.points[-1][0] == mixing_n_max
    assert v.empirical_ergodic.points[-1][0] == ergodic_n_max


def test_strictly_aperiodic(order10):
    r = strictly_aperiodic_check(delta(order10, GElem((2,), 1)))
    assert not r.strictly_aperiodic and r.closure_size == 1
    assert strictly_aperiodic_check(uniform(order10)).strictly_aperiodic
    assert strictly_aperiodic_check(two_atom_walk(order10)).strictly_aperiodic
    r = strictly_aperiodic_check(coset_walk(order10))
    assert not r.strictly_aperiodic and r.closure_size == 5
    with pytest.raises(EmptySupport):
        strictly_aperiodic_check(from_weights(order10, np.zeros(10)))


def structural(mu):
    a, s = adapted(mu), strictly_aperiodic_check(mu)
    return a.adapted, a.subgroup_size, s.strictly_aperiodic, s.closure_size


@pytest.mark.parametrize("maker", [lambda: negation_group(6), lambda: scaling_group(7, 2, 3),
                                   lambda: swap_group(4), lambda: rotation_group(6),
                                   lambda: trivial_group(3, 3), lambda: d4_group(3)],
                         ids=["negation6", "scaling7", "swap4", "rotation6", "z3_cubed", "d4_3"])
def test_closures_match_breadth_first_oracle(maker):
    # sparse supports of 1-4 atoms: proper subgroups and proper normal
    # closures are common, and d4_3 has a non-abelian K
    g = maker()
    rng = np.random.default_rng(g.size)
    for _ in range(60):
        w = np.zeros(g.size)
        w[rng.choice(g.size, rng.integers(1, 5), replace=False)] = 1.0
        mu = from_weights(g, w / w.sum())
        assert structural(mu) == structure(mu)
    # supports around |G|/p atoms, p the least prime dividing |G|: the
    # largest order a proper subgroup can have, where the Lagrange exits decide
    edge = g.size // g._order_primes[0]
    for size in (edge - 1, edge, edge + 1):
        for _ in range(5):
            w = np.zeros(g.size)
            w[rng.choice(g.size, size, replace=False)] = 1.0
            mu = from_weights(g, w / w.sum())
            assert structural(mu) == structure(mu)


def uniform_on_indices(g, seed):
    w = np.zeros(g.size)
    w[seed] = 1.0
    return from_weights(g, w / w.sum())


@pytest.mark.parametrize("maker", [lambda: negation_group(8), lambda: scaling_group(7, 2, 3)],
                         ids=["negation8", "scaling7"])
def test_lagrange_exits_keep_a_subgroup_of_index_p(maker):
    # A x {0} has |G|/p elements, p the least prime dividing |G| (2 of 16,
    # 3 of 21): a proper subgroup as large as one can be. With or without
    # the identity it closes to itself; one element more gives G
    g = maker()
    sub = np.arange(0, g.size, g.k.order)          # the indices with k = 0
    assert sub.size * g._order_primes[0] == g.size
    outside = 1                                    # (0, k = 1)
    for seed in (sub, sub[1:], np.append(sub, outside), np.append(sub[1:], outside)):
        want = g.size if outside in seed else sub.size
        assert classify._closure(g, seed).size == want
        mu = uniform_on_indices(g, seed)
        assert structural(mu) == structure(mu)
        assert adapted(mu) == AdaptedResult(want == g.size, want)


def test_lagrange_settles_a_group_of_prime_order():
    g = trivial_group(97)
    assert classify._closure(g, [0]).tolist() == [0]
    assert classify._closure(g, []).tolist() == [0]
    for x in (1, 2, 96):
        for seed in ([x], [0, x]):
            assert classify._closure(g, seed).size == g.size
            mu = uniform_on_indices(g, seed)
            assert structural(mu) == structure(mu)


@pytest.mark.parametrize("maker", [lambda: trivial_group(1), lambda: negation_group(1),
                                   lambda: rotation_group(1), lambda: scaling_group(1, 0, 3)],
                         ids=["order1", "order2", "order4", "order3"])
def test_closures_on_modulus_one_groups(maker):
    # A is trivial, so G is K (or trivial): every support against the oracle
    g = maker()
    for bits in range(1, 2 ** g.size):
        mu = uniform_on_indices(g, [i for i in range(g.size) if bits >> i & 1])
        assert structural(mu) == structure(mu)


def test_lagrange_settles_large_supports_without_products(monkeypatch):
    # more than |G|/p = 97 atoms generate G, and so do their differences,
    # which are as many and hold the identity: neither check calls products
    calls = []

    def counted(*args):
        calls.append(1)
        return products(*args)
    monkeypatch.setattr(classify, "products", counted)
    g = negation_group(97)
    rng = np.random.default_rng(97)
    dense = rng.random(g.size)
    for mu in (uniform(g), from_weights(g, dense / dense.sum()),
               uniform_on_indices(g, rng.choice(np.arange(1, g.size), 98, replace=False))):
        assert adapted(mu) == AdaptedResult(True, g.size)
        assert strictly_aperiodic_check(mu) == AperiodicResult(True, g.size)
    assert calls == []


def lazy_cycle_walk(n, step):
    """Half the identity, half the translation by step, on Z_n."""
    g = trivial_group(n)
    w = np.zeros(n)
    w[[0, step]] = 0.5
    return from_weights(g, w)


def test_closures_step_by_dyadic_powers(monkeypatch):
    # a kept element's powers x^(2^j) cross a 4096-cycle in about log2 |G|
    # products calls; one call per step of the cycle would take 4095
    calls = []

    def counted(*args):
        calls.append(1)
        return products(*args)
    monkeypatch.setattr(classify, "products", counted)
    mu = lazy_cycle_walk(4096, 1)
    for check in (adapted, strictly_aperiodic_check):
        calls.clear()
        check(mu)
        assert len(calls) <= 4 * 12, check.__name__


def test_closures_on_long_cycles():
    n = 1 << 15
    assert structural(lazy_cycle_walk(n, 1)) == (True, n, True, n)
    # steps of 2 reach only the even residues: a proper subgroup, normal,
    # that holds the support
    assert structural(lazy_cycle_walk(n, 2)) == (False, n // 2, False, n // 2)


def test_empirical_mixing_patterns(order10):
    curve = empirical_mixing(uniform(order10), n_max=64)
    assert curve.verdict == "MIXING"
    assert all(v < 1e-14 for _, v in curve.points)   # roundoff only
    curve = empirical_mixing(delta(order10, order10.identity()), n_max=64)
    assert curve.verdict == "NOT_MIXING"
    # a point mass lies 2 - 2/|G| from Haar; its translate gap is 2
    assert all(abs(v - (2.0 - 2.0 / order10.size)) <= 1e-15 for _, v in curve.points)


def test_empirical_mixing_two_atom_walk(order10):
    curve = empirical_mixing(two_atom_walk(order10), n_max=1024)
    assert curve.verdict == "MIXING"
    values = dict(curve.points)
    # decay is governed by the top block radius cos(pi/5) ~ 0.809
    rho = abs(math.cos(4 * math.pi / 5))
    for n, v in curve.points:
        if n >= 8:
            assert v <= max(2 * order10.size * rho ** n, 1e-14)
    # at n = 64 the walk is near 1e-6, far from fully mixed yet
    assert 1e-7 < values[64] < 1e-5
    assert values[1024] < 1e-12


def _assert_in_bracket(points, exact):
    # d <= sup gap <= 2d, with room for rounding far below every threshold
    assert [n for n, _ in points] == [n for n, _ in exact]
    for (n, d), (_, gap) in zip(points, exact):
        assert d - 1e-12 <= gap <= 2.0 * d + 1e-12, (n, d, gap)


@pytest.mark.parametrize("group", ["order10", "order72", "rotation4"])
@pytest.mark.parametrize("scale", [1, 7])
def test_translate_gaps_match_dense_table(request, group, scale):
    # the Haar bracket ||w - m u||_1 <= sup_x ||delta_x * w - w||_1 <= 2 ||w - m u||_1
    # for rows w of any mass m (scale 7 moves the point mass and the uniform
    # row off mass 1), against the exact gap over the whole products table
    g = rotation_group(4) if group == "rotation4" else request.getfixturevalue(group)
    rng = np.random.default_rng(g.size)
    rows = scale * np.vstack([rng.random(g.size), np.eye(g.size)[3], np.full(g.size, 1 / g.size),
                              rng.random(g.size) * (rng.random(g.size) < 0.2)])
    dists = np.abs(rows - rows.sum(axis=1, keepdims=True) / g.size).sum(axis=1)
    gaps = translate_gaps(g, rows)
    assert gaps.shape == (len(rows),)
    _assert_in_bracket(list(enumerate(dists)), list(enumerate(gaps)))
    # a point mass: every nontrivial translate misses it, and it lies
    # 2 - 2/|G| from Haar
    assert gaps[1] == 2.0 * scale
    assert abs(dists[1] - scale * (2.0 - 2.0 / g.size)) <= 1e-12
    assert gaps[2] <= 1e-15 and dists[2] <= 1e-15


def test_mixing_gap_is_within_twice_the_distance_to_uniform():
    # each point is the distance of mu^n to Haar, mu^n from the convolve
    # chain, a route that never reads the blocks the curve squares, at
    # |G| = 2304, and brackets the exact translate gap
    g = rotation_group(24)
    mu = five_atom_walk(g)
    curve = empirical_mixing(mu)
    ns = [n for n, _ in curve.points]
    assert ns[-1] == 1024 and curve.verdict == "MIXING"
    rows = np.array([power.weights.real for power in convolve_powers(mu, ns)])
    for (n, d), row in zip(curve.points, rows):
        assert abs(d - np.abs(row - 1 / g.size).sum()) <= 1e-12, n
    gaps = translate_gaps(g, rows)
    _assert_in_bracket(curve.points, list(zip(ns, gaps)))
    # some translate of the five atoms misses them all: the gap is 2, the
    # distance 2 - 10/|G|
    assert abs(gaps[0] - 2.0) <= 1e-12
    assert abs(curve.points[0][1] - (2.0 - 10.0 / g.size)) <= 1e-12


@pytest.mark.parametrize("target, verdict", [(0.3e-6, "MIXING"), (0.7e-6, "INCONCLUSIVE")])
def test_mixing_verdict_reads_the_upper_end_of_the_bracket(order10, target, verdict):
    # the lazy walk's mu^n = (1-h)^n delta_e + (1 - (1-h)^n) u lies
    # d = (1-h)^n (2 - 2/|G|) from Haar; its exact gap 2 (1-h)^n is below the
    # threshold either way. h puts d(mu^1024) at target: only a d below half
    # the threshold certifies MIXING
    h = 1.0 - (target / (2.0 - 2.0 / order10.size)) ** (1 / 1024)
    curve = empirical_mixing(lazy_perturbed(order10, h))
    assert abs(curve.points[-1][1] - target) <= 1e-12
    assert 2.0 * (1.0 - h) ** 1024 < classify.MIXING_THRESHOLD
    assert curve.verdict == verdict


def test_empirical_mixing_rejects_bad_n_max(order10):
    with pytest.raises(ValueError):
        empirical_mixing(uniform(order10), n_max=100)


@pytest.mark.parametrize("budget", ["mixing_n_max", "ergodic_n_max"])
def test_cross_check_rejects_bad_n_max(order10, budget):
    # the curves share one power chain, built to the larger budget: each
    # budget is still checked on its own
    with pytest.raises(ValueError):
        cross_check(uniform(order10), **{budget: 100})


def test_empirical_ergodic_patterns(order10):
    curve = empirical_ergodic(uniform(order10), n_max=64)
    assert curve.verdict == "ERGODIC"
    assert all(v < 1e-13 for _, v in curve.points)
    curve = empirical_ergodic(delta(order10, order10.identity()), n_max=64)
    assert curve.verdict == "NOT_ERGODIC"
    assert all(abs(v - (2.0 - 2.0 / order10.size)) <= 1e-15 for _, v in curve.points)


def test_order_two_atom_is_ergodic_not_mixing(z2):
    mu = delta(z2, GElem((1,), 0))
    mix = empirical_mixing(mu, n_max=512)
    erg = empirical_ergodic(mu, n_max=512)
    assert mix.verdict == "NOT_MIXING"
    assert all(v == 2.0 - 2.0 / z2.size for _, v in mix.points)
    assert erg.verdict == "ERGODIC"
    # even-time Cesaro averages cancel exactly
    assert dict(erg.points)[512] == 0.0
    assert check_s(mu).verdict == TriState.HOLDS
    assert check_sr(mu).verdict == TriState.FAILS


def test_coset_walk_is_ergodic_not_mixing(order10):
    mu = coset_walk(order10)
    assert empirical_mixing(mu, n_max=512).verdict == "NOT_MIXING"
    erg = empirical_ergodic(mu, n_max=512)
    assert erg.verdict == "ERGODIC"
    assert dict(erg.points)[512] < 0.02
    assert check_sr(mu).verdict == TriState.FAILS
    # the failure is visible only at the constants complement
    assert check_sr(mu).witness.is_complement


def test_weak_mixing_patterns(order10):
    curve = empirical_weak_mixing(uniform(order10), n_max=256)
    assert curve.verdict == "WEAK_MIXING"
    assert all(v < 1e-14 for _, v in curve.points)
    curve = empirical_weak_mixing(delta(order10, order10.identity()), n_max=64)
    assert curve.verdict == "NOT_WEAK_MIXING"
    assert curve.points[-1][1] > 1.0


def test_weak_mixing_agrees_on_designed_cases(order10, z2):
    cases = [
        (uniform(order10), True),
        (two_atom_walk(order10), True),
        (coset_walk(order10), False),
        (delta(z2, GElem((1,), 0)), False),
        (delta(order10, order10.identity()), False),
    ]
    for mu, should_mix in cases:
        wm = empirical_weak_mixing(mu, n_max=512)
        mix = empirical_mixing(mu, n_max=512)
        assert wm.conclusive and mix.conclusive
        assert wm.decays == mix.decays == should_mix


@pytest.mark.parametrize("group", ["order10", "order18", "rotation4", "order21", "order72"])
def test_block_coefficients_span_all_functions(request, group):
    # every irreducible of G sits in some induced block Lambda_alpha, so the
    # coefficient functions y -> Lambda_alpha(y)[k', c] over the orbit
    # representatives span the functions on G: the weak-mixing curve needs
    # no other test function
    g = rotation_group(4) if group == "rotation4" else request.getfixturevalue(group)
    reps = [o.representative for o in dual_orbits(g)]
    coeffs = np.array([np.concatenate([lambda_elem(g, alpha, y).ravel() for alpha in reps])
                       for y in g.elements()])
    assert np.linalg.matrix_rank(coeffs) == g.size


def test_flat_weak_mixing_tail_is_resolved():
    # a translation times the swap: its square is a pure translation, so no
    # average of its powers decays, and the mean-square curve sits at 1.5
    g = swap_group(3)
    v = cross_check(delta(g, GElem((1, 0), 1)))
    wm = v.weak_mixing_empirical
    assert wm.verdict == "NOT_WEAK_MIXING"
    assert all(abs(p - 1.5) <= 1e-12 for _, p in wm.points[-3:])
    assert v.sr.verdict == TriState.FAILS
    assert v.empirical_mixing.verdict == "NOT_MIXING"
    assert v.consistency == ()


@pytest.mark.parametrize("shape, verdict", [((23, 5, 22), "INCONCLUSIVE"),
                                            ((11, 2, 10), "NOT_WEAK_MIXING")],
                         ids=["order506", "order110"])
def test_weak_mixing_floor_reads_on_the_scale_of_the_mean(shape, verdict):
    # the uniform measure on K lives on a proper subgroup, so it is not even
    # ergodic; every term of its curve reads |phi - 1| / |K| at every step, a
    # floor c of 0.0907 on scaling_group(23, 5, 22) and 0.198 on (11, 2, 10).
    # The mean of squares reads c^2 (0.0082 and 0.039); the verdicts are
    # those the mean of |.| gave: open below ten times the threshold,
    # NOT_WEAK_MIXING above it
    g = scaling_group(*shape)
    on_k = uniform_on(g, [GElem((0,), k) for k in range(g.k.order)])
    v = cross_check(on_k)
    wm = v.weak_mixing_empirical
    assert wm.verdict == verdict
    assert wm.points[-1][1] < 0.04
    assert v.consistency == ()


def test_weak_mixing_floor_under_a_transient_stays_open():
    # the floor 0.0907 of the uniform measure on K under a decaying
    # transient (half its mass on the identity): at n = 1024 the mean of
    # squares has fallen below the threshold, the last window has not
    g = scaling_group(23, 5, 22)
    on_k = uniform_on(g, [GElem((0,), k) for k in range(g.k.order)])
    lazy = from_weights(g, 0.5 * on_k.weights + 0.5 * np.eye(g.size)[g.index(g.identity())])
    wm = empirical_weak_mixing(lazy, n_max=1024)
    assert wm.points[-1][1] < 0.01
    assert wm.verdict == "INCONCLUSIVE"


def test_cross_check_grid(order10, z2):
    for mu in (uniform(order10), delta(order10, order10.identity()),
               two_atom_walk(order10), coset_walk(order10),
               delta(z2, GElem((1,), 0)),
               uniform_on(order10, [GElem((a,), 0) for a in range(5)])):
        v = cross_check(mu, mixing_n_max=512, ergodic_n_max=512)
        assert v.consistency == (), (mu.support(), v.consistency)


def test_cross_check_fields(order10):
    v = cross_check(two_atom_walk(order10), mixing_n_max=256,
                    ergodic_n_max=256)
    assert v.sr.verdict == TriState.HOLDS
    assert v.s.verdict == TriState.HOLDS
    assert v.adapted.adapted and v.strictly_aperiodic.strictly_aperiodic
    assert v.empirical_mixing.decays is True
    d = v.to_dict()
    assert d["sr"]["verdict"] == "HOLDS"
    assert d["consistency"] == []


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_random_probability_grid_consistency(seed):
    rng = np.random.default_rng(seed)
    g = negation_group(4) if seed % 2 else scaling_group(7, 2, 3)
    w = rng.random(g.size) * (rng.random(g.size) < 0.4)
    if w.sum() == 0:
        w[rng.integers(g.size)] = 1.0
    mu = from_weights(g, w / w.sum())
    v = cross_check(mu, mixing_n_max=256, ergodic_n_max=256)
    assert v.consistency == ()
    if v.sr.verdict == TriState.HOLDS:
        assert v.s.verdict == TriState.HOLDS


@pytest.mark.parametrize("maker", [lambda: negation_group(5),
                                   lambda: swap_group(3),
                                   lambda: rotation_group(4),
                                   lambda: d4_group(3)],
                         ids=["order10", "order18", "rotation4", "d4_3"])
def test_phase_coset_max_matches_every_element(maker):
    # the closed-form max over the phase coset and over k against an explicit
    # max over every x = (a, k), on the Gram sums of three powers of a random
    # complex stack (generic phases) and of a point mass's blocks (phases on
    # the coset, so ties)
    g = maker()
    reps = [o.representative for o in dual_orbits(g)]
    nk = g.k.order
    eye = np.eye(nk)
    rng = np.random.default_rng(g.size)
    lams = np.stack([np.stack([lambda_elem(g, alpha, x) for x in g.elements()])
                     for alpha in reps])                        # (orbit, x, k', c)
    for p in (rng.normal(size=(len(reps), nk, nk)) + 1j * rng.normal(size=(len(reps), nk, nk)),
              lams[:, g.size // 2 + 1]):
        powers = [np.linalg.matrix_power(p, j) for j in (1, 2, 3)]
        gram = sum(np.einsum("ric,rlc->rcil", pw, pw.conj()) for pw in powers)
        want = sum(np.abs((lams - eye) @ pw[:, None]) ** 2 for pw in powers).max(axis=1)
        got = _row_max(gram, g._phase_orders).max(axis=-2).swapaxes(1, 2)
        assert np.allclose(got, want, rtol=1e-13, atol=1e-12)
        # a stack of Gram sums on a leading axis: each slice as on its own
        stacked = _row_max(np.stack([gram, 2j * gram.conj()]), g._phase_orders).max(axis=-2)
        assert stacked.shape == (2,) + got.swapaxes(1, 2).shape
        for one, alone in zip(stacked, [gram, 2j * gram.conj()]):
            assert np.array_equal(one, _row_max(alone, g._phase_orders).max(axis=-2))


@pytest.mark.parametrize("x", [GElem((0,), 0), GElem((1,), 0), GElem((0,), 1)])
def test_point_mass_mixing_curve_stays_flat(x):
    # a point mass stays 2 - 2/|G| from Haar; the FFT squarings must
    # keep the curve flat far inside the 1e-9 that the NOT_MIXING floor needs
    curve = empirical_mixing(delta(negation_group(97), x))
    assert curve.verdict == "NOT_MIXING"
    tail = [v for _, v in curve.points[-3:]]
    assert max(tail) <= min(tail) * (1.0 + 1e-11)


def _assert_curve_matches(curve, want):
    assert [n for n, _ in curve.points] == [n for n, _ in want]
    for (_, got), (_, ref) in zip(curve.points, want):
        assert abs(got - ref) <= 1e-12


@pytest.mark.parametrize("maker", [lambda: negation_group(5),
                                   lambda: swap_group(3),
                                   lambda: rotation_group(4),
                                   lambda: scaling_group(7, 2, 3),
                                   lambda: d4_group(3)],
                         ids=["order10", "order18", "rotation4", "order21", "d4_3"])
def test_cesaro_curves_match_per_step_loop(maker):
    g = maker()
    rng = np.random.default_rng(g.size)
    eye = np.eye(g.size)
    sparse = rng.random(g.size) * (rng.random(g.size) < 0.3) + eye[1]
    measures = [uniform(g), delta(g, g.identity()),
                from_weights(g, 0.5 * eye[g.k.order] + 0.5 * eye[1]),  # translation, bare k
                from_weights(g, sparse / sparse.sum())]
    # a probability measure within PROBABILITY_TOL of the sparse one: both
    # Cesaro walks run on its real part, so its curves are those of the real part
    nearly_real = from_weights(g, measures[-1].weights
                               + 1e-13j * rng.uniform(-1, 1, g.size))
    for mu in measures + [nearly_real]:
        for n_max in (1, 2, 64, 512):
            erg = empirical_ergodic(mu, n_max=n_max)
            want, exact = per_step_points(mu, n_max)["ergodic"]
            if mu is nearly_real:
                assert erg == empirical_ergodic(from_weights(g, mu.weights.real), n_max=n_max)
            else:
                _assert_curve_matches(erg, want)
            _assert_in_bracket(erg.points, exact)
            verdict, decays = _decide(exact, 0.02, "ERGODIC", "NOT_ERGODIC")
            if decays is not None:
                assert erg.verdict == verdict
            wm = empirical_weak_mixing(mu, n_max=n_max)
            want, window = per_step_weak_mixing(mu, n_max)
            _assert_curve_matches(wm, want)
            if mu is nearly_real:
                assert wm == empirical_weak_mixing(from_weights(g, mu.weights.real),
                                                   n_max=n_max)
            assert wm.verdict == _weak_mixing_verdict(want, window)[0]
