"""The case battery itself: size, determinism, and family guarantees."""
import numpy as np
import pytest

from motionwalk.groups import GElem, dual_orbits
from motionwalk.measures import is_probability, tv_norm, uniform_on
from motionwalk.reps import fourier
from motionwalk.suite import acceptance_suite, coset_walk, fast_mixer, roster

from oracles import convolve, random_complex_measure, spectral_sample_groups


@pytest.fixture(scope="module")
def suite():
    return acceptance_suite()


def test_exactly_two_hundred_probability_cases(suite):
    assert len(suite) == 200
    names = [c.name for c in suite]
    assert len(set(names)) == 200
    for case in suite:
        assert is_probability(case.measure)
        assert case.group.size <= 200


def test_rebuild_is_bit_identical(suite):
    again = acceptance_suite()
    for a, b in zip(suite, again):
        assert a.name == b.name
        assert np.array_equal(a.measure.weights, b.measure.weights)


def test_groups_are_shared_within_a_build(suite):
    by_key = {}
    for case in suite:
        by_key.setdefault(case.group_key, case.group)
        assert case.group is by_key[case.group_key]
    assert len(by_key) == 14


def test_roster_orders():
    groups = roster()
    sizes = {key: g.size for key, g in groups.items()}
    assert sizes["t2"] == 2
    assert sizes["neg97"] == 194
    assert max(sizes.values()) <= 200


def test_fast_mixer_block_radii_bounded():
    groups = roster()
    g = groups["neg8"]
    rng = np.random.Generator(np.random.Philox(key=5))
    raw = rng.random(g.size)
    from motionwalk.measures import from_weights

    nu = from_weights(g, raw / raw.sum())
    for beta in (0.1, 0.3):
        mu = fast_mixer(g, beta, nu)
        for orbit in dual_orbits(g):
            if orbit.representative.is_trivial():
                continue
            block = fourier(mu, orbit.representative)
            radius = max(abs(np.linalg.eigvals(block)))
            assert radius <= beta + 1e-12


def test_coset_walk_powers_cycle_through_cosets():
    g = roster()["sc5_2_4"]
    mu = coset_walk(g)
    square = convolve(mu, mu)
    expected = uniform_on(g, (GElem(a, 2) for a in g.abelian.elements()))
    assert np.allclose(square.weights, expected.weights, atol=1e-14)


def test_designed_witness_is_present(suite):
    witnesses = [c for c in suite if c.family == "order-two-point"]
    assert len(witnesses) == 1
    w = witnesses[0]
    assert w.group_key == "t2"
    assert "not mixing" in w.note


def test_random_complex_measure_unit_tv():
    g = roster()["neg5"]
    rng = np.random.Generator(np.random.Philox(key=11))
    for _ in range(5):
        mu = random_complex_measure(g, rng)
        assert abs(tv_norm(mu) - 1.0) < 1e-12


def test_spectral_sample_groups_small():
    groups = spectral_sample_groups()
    assert len(groups) == 5
    assert all(g.size <= 64 for g in groups.values())
