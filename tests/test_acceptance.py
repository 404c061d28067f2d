"""End-to-end acceptance gate: one test per criterion, numbered.

Criteria 2-5 and 8 share a single classification pass over the 200-case
suite (module-scoped fixture), so the whole module stays well inside the
stated runtime budgets.
"""
from fractions import Fraction
import json
from pathlib import Path
import time

import numpy as np
import pytest

from motionwalk import classify
from motionwalk.classify import (CESARO_N_MAX, ERGODIC_THRESHOLD, MIXING_THRESHOLD, TriState,
                                 _decide, cross_check, empirical_weak_mixing)
from motionwalk.groups import Character, dual_orbits
from motionwalk.measures import convolve, tv_norm
from motionwalk.reps import fourier, rep_of_measure
from motionwalk.rosenblatt import (
    GAMMA_INV,
    QSqrt5,
    ZElem,
    defect_norm,
    eigen_parameter,
    rosenblatt_measure,
    z_multiply,
)
from motionwalk.simulate import empirical_distribution, exact_power
from motionwalk.spectral import orbit_spectra, verify_srf
from motionwalk.suite import acceptance_suite, roster

from oracles import (
    central_measure,
    gram_list_weak_mixing,
    orbit_conjugation_check,
    per_step_points,
    pik_consistency,
    random_complex_measure,
    spectral_sample_groups,
    structure,
)


@pytest.fixture(scope="module")
def suite():
    return acceptance_suite()


@pytest.fixture(scope="module")
def classified(suite):
    """cross_check on all 200 cases plus the wall-clock time it took."""
    t0 = time.monotonic()
    verdicts = [cross_check(case.measure) for case in suite]
    return list(zip(suite, verdicts)), time.monotonic() - t0


def test_criterion_1_spectral_radius_formula():
    groups = spectral_sample_groups()
    assert len(groups) == 5
    assert all(g.size <= 64 for g in groups.values())
    t0 = time.monotonic()
    for key, g in groups.items():
        rng = np.random.Generator(np.random.Philox(key=0x5C1))
        for _ in range(100):
            mu = random_complex_measure(g, rng)
            report = verify_srf(mu)
            assert report.formula_gap <= 1e-6, (key, report.formula_gap)
    assert time.monotonic() - t0 <= 60.0


def test_criterion_2_mixing_equivalence(classified):
    pairs, elapsed = classified
    assert len(pairs) == 200
    assert all(case.group.size <= 200 for case, _ in pairs)
    contradictions = []
    for case, v in pairs:
        if v.sr.verdict is TriState.INDETERMINATE:
            continue
        if not v.empirical_mixing.conclusive:
            continue
        spectral_says = v.sr.verdict is TriState.HOLDS
        walk_says = v.empirical_mixing.verdict == "MIXING"
        if spectral_says != walk_says:
            contradictions.append(case.name)
    assert contradictions == []
    assert elapsed <= 300.0


def test_criterion_3_ergodic_equivalence(classified):
    pairs, _ = classified
    contradictions = []
    for case, v in pairs:
        if v.s.verdict is TriState.INDETERMINATE:
            continue
        if not v.empirical_ergodic.conclusive:
            continue
        spectral_says = v.s.verdict is TriState.HOLDS
        walk_says = v.empirical_ergodic.verdict == "ERGODIC"
        if spectral_says != walk_says:
            contradictions.append(case.name)
    assert contradictions == []

    witness = {case.name: v for case, v in pairs}["t2/order-two-point"]
    assert witness.empirical_ergodic.verdict == "ERGODIC"
    assert witness.empirical_mixing.verdict == "NOT_MIXING"
    assert witness.s.verdict is TriState.HOLDS
    assert witness.sr.verdict is TriState.FAILS


def test_criterion_4_weak_mixing_equals_mixing(classified):
    pairs, _ = classified
    disagreements = []
    for case, v in pairs:
        if not (v.empirical_mixing.conclusive
                and v.weak_mixing_empirical.conclusive):
            continue
        mixing = v.empirical_mixing.verdict == "MIXING"
        weak = v.weak_mixing_empirical.verdict == "WEAK_MIXING"
        if mixing != weak:
            disagreements.append(case.name)
    assert disagreements == []


def test_criterion_5_condition_grid(classified):
    pairs, _ = classified
    for case, v in pairs:
        structural_mixing = v.adapted.adapted and \
            v.strictly_aperiodic.strictly_aperiodic
        if v.sr.verdict is not TriState.INDETERMINATE:
            assert (v.sr.verdict is TriState.HOLDS) == structural_mixing, case.name
        if v.s.verdict is not TriState.INDETERMINATE:
            assert (v.s.verdict is TriState.HOLDS) == v.adapted.adapted, case.name
        # one-directional necessities for the empirical proxies
        if v.empirical_ergodic.verdict == "ERGODIC":
            assert v.adapted.adapted, case.name
        if v.empirical_mixing.verdict == "MIXING":
            assert structural_mixing, case.name


def _nonzero_orbit_reps(g):
    zero = Character((0,) * g.abelian.rank)
    return [o.representative for o in dual_orbits(g) if o.representative != zero]


def test_criterion_6_structural_identities():
    groups = roster()
    sample = [groups["neg5"], groups["sc5_2_4"], groups["swap3"]]
    rng = np.random.default_rng(61)
    for g in sample:
        mu = random_complex_measure(g, rng)
        nu = random_complex_measure(g, rng)
        conv = convolve(mu, nu)

        assert pik_consistency(mu) <= 1e-12

        for alpha in [o.representative for o in dual_orbits(g)]:
            lhs = fourier(conv, alpha)
            rhs = fourier(nu, alpha) @ fourier(mu, alpha)
            assert np.abs(lhs - rhs).max() <= 1e-12

            adj = rep_of_measure(mu.conjugate(), alpha).conj().T
            assert np.abs(fourier(mu, alpha) - adj).max() <= 1e-12

        for alpha in _nonzero_orbit_reps(g)[:2]:
            for kprime in range(g.k.order):
                assert orbit_conjugation_check(g, alpha, kprime) <= 1e-12

        # central measure: identity on the chosen orbits, zero elsewhere,
        # and commutes with everything
        orbit = next(o for o in dual_orbits(g)
                     if o.representative in _nonzero_orbit_reps(g))
        s = set(orbit.members)
        central = central_measure(g, s)
        assert tv_norm(convolve(central, mu) - convolve(mu, central)) <= 1e-12
        for o in dual_orbits(g):
            block = fourier(central, o.representative)
            want = 1.0 if o.representative in s else 0.0
            assert np.abs(block - want * np.eye(g.k.order)).max() <= 1e-12


def test_criterion_7_exact_lattice_walk():
    t0 = time.monotonic()

    b = ZElem(1, 2, 1)
    c = ZElem(2, 3, 1)
    assert z_multiply(b, c) == ZElem(9, 15, 2)
    assert z_multiply(c, c) == ZElem(10, 16, 2)
    support = {atom for atom, _ in rosenblatt_measure()}
    assert {z_multiply(b, c), z_multiply(c, c)} <= support

    t, lam = eigen_parameter()
    assert lam == QSqrt5(Fraction(-2), Fraction(1))  # sqrt(5) - 2
    moved = (
        t[0] * QSqrt5(Fraction(GAMMA_INV[0][0]), 0)
        + t[1] * QSqrt5(Fraction(GAMMA_INV[1][0]), 0),
        t[0] * QSqrt5(Fraction(GAMMA_INV[0][1]), 0)
        + t[1] * QSqrt5(Fraction(GAMMA_INV[1][1]), 0),
    )
    assert moved == (lam * t[0], lam * t[1])

    for n in (8, 64, 1024):
        r = defect_norm(t, n)
        assert abs(r.direct - r.closed_form) <= 1e-10
        assert r.direct > 0

    seq = [defect_norm(t, 2 ** j).direct for j in range(3, 11)]
    assert all(a > b for a, b in zip(seq, seq[1:]))
    assert seq[-1] < seq[0] / 100
    assert seq[-1] < 1e-2

    assert time.monotonic() - t0 <= 30.0


def test_criterion_8_strong_operator_decay(classified):
    pairs, _ = classified
    checked_mixing = checked_ergodic = 0
    for case, v in pairs:
        reps = _nonzero_orbit_reps(case.group)
        if v.empirical_mixing.verdict == "MIXING":
            checked_mixing += 1
            for alpha in reps:
                block = fourier(case.measure, alpha)
                power = np.linalg.matrix_power(block, 1024)
                col_norms = np.linalg.norm(power, axis=0)
                assert col_norms.max() <= 1e-6, (case.name, tuple(alpha.alpha))
        if v.empirical_ergodic.verdict == "ERGODIC":
            checked_ergodic += 1
            for alpha in reps:
                block = fourier(case.measure, alpha)
                acc = np.zeros_like(block)
                p = np.eye(block.shape[0], dtype=block.dtype)
                for _ in range(512):
                    p = p @ block
                    acc += p
                assert np.linalg.norm(acc / 512.0, 2) <= 1e-3, \
                    (case.name, tuple(alpha.alpha))
    assert checked_mixing >= 50
    assert checked_ergodic >= checked_mixing


CENSUS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "data" / "suite200_census.json"


def test_suite_matches_frozen_census(classified):
    """Every verdict of the 200 cases equals the frozen census, field by field."""
    pairs, _ = classified
    census = json.loads(CENSUS_PATH.read_text())["cases"]
    got = {
        case.name: {
            "sr": v.sr.verdict.value,
            "s": v.s.verdict.value,
            "adapted": v.adapted.adapted,
            "strictly_aperiodic": v.strictly_aperiodic.strictly_aperiodic,
            "mixing": v.empirical_mixing.verdict,
            "ergodic": v.empirical_ergodic.verdict,
            "weak_mixing": v.weak_mixing_empirical.verdict,
        }
        for case, v in pairs
    }
    assert got.keys() == census.keys()
    assert [name for name in census if got[name] != census[name]] == []


def test_suite_spectral_records_match_the_reflected_transform(classified):
    """On every case, cross_check's (SR) and (S) records, read off the
    blocks P = Lambda_alpha(mu), agree within 1e-14 with orbit_spectra's,
    which read mu_hat(Lambda_alpha) = P^* off the reflected weights, and
    the verdicts and witness values those records give are cross_check's."""
    pairs, _ = classified
    for case, v in pairs:
        spectra = orbit_spectra(case.measure)
        per_orbit, comp = spectra
        want = [(o, False) for o in per_orbit[1:]] + [(comp, True)]
        for check, field, decide in ((v.sr, "spectral_radius", classify._sr_from_spectra),
                                     (v.s, "margin", classify._s_from_spectra)):
            assert [(r.representative, r.is_complement) for r in check.records] \
                == [(o.representative, c) for o, c in want], case.name
            for r, (o, _) in zip(check.records, want):
                assert r.value == pytest.approx(getattr(o, field), rel=0, abs=1e-14), \
                    (case.name, check.condition)
            reflected = decide(spectra, check.tol)
            assert reflected.verdict == check.verdict, (case.name, check.condition)
            assert abs(reflected.witness.value - check.witness.value) <= 1e-14, case.name


def test_criterion_9_simulation_consistency(suite):
    trials = 100_000
    cases = suite[::20]
    assert len(cases) == 10
    for case in cases:
        g = case.group
        exact = exact_power(case.measure, 8)
        emp = empirical_distribution(g, case.measure, 8, trials, seed=2026)
        again = empirical_distribution(g, case.measure, 8, trials, seed=2026)
        assert np.array_equal(emp.weights, again.weights)
        tv = 0.5 * float(np.abs(emp.weights - exact.weights).sum())
        bound = 4.0 * np.sqrt(g.size / trials)
        assert tv <= bound, (case.name, tv, bound)


def test_suite_curves_bracket_the_exact_translate_gaps(classified):
    """On every case, each mixing and ergodic point d lies in the Haar
    bracket d <= gap <= 2d of the exact translate gap of the per-step walk,
    and each verdict is _decide's on the exact gaps wherever that is
    conclusive."""
    pairs, _ = classified
    for case, v in pairs:
        exact = per_step_points(case.measure, 1024)
        for key, curve, threshold, pos, neg in (
                ("mixing", v.empirical_mixing, MIXING_THRESHOLD, "MIXING", "NOT_MIXING"),
                ("ergodic", v.empirical_ergodic, ERGODIC_THRESHOLD, "ERGODIC", "NOT_ERGODIC")):
            gaps = exact[key][1][:len(curve.points)]
            assert [n for n, _ in curve.points] == [n for n, _ in gaps]
            for (n, d), (_, gap) in zip(curve.points, gaps):
                assert d - 1e-12 <= gap <= 2.0 * d + 1e-12, (case.name, key, n, d, gap)
            verdict, decays = _decide(gaps, threshold, pos, neg)
            if decays is not None:
                assert curve.verdict == verdict, (case.name, key)


def test_suite_weak_mixing_matches_the_gram_list_loop(classified, monkeypatch):
    """On every case, the weak-mixing points of cross_check and of
    empirical_weak_mixing, and the last window's root mean square the
    verdict reads, are == to those of the loop that holds every Gram sum
    (oracles.gram_list_weak_mixing)."""
    read = []

    def verdict(points, window):
        read.append((points, window))
        return weak_mixing_verdict(points, window)

    weak_mixing_verdict = classify._weak_mixing_verdict
    monkeypatch.setattr(classify, "_weak_mixing_verdict", verdict)
    pairs, _ = classified
    for case, v in pairs:
        read.clear()
        curve = empirical_weak_mixing(case.measure)
        want = gram_list_weak_mixing(case.measure, CESARO_N_MAX)
        assert curve.points == v.weak_mixing_empirical.points == want[0], case.name
        assert read == [want], case.name


def test_suite_structure_matches_the_breadth_first_closures(classified):
    """On every case, the subgroup the support generates and the normal
    closure of its differences have the sizes of the breadth-first
    closures, the latter over all |G| conjugates of every difference."""
    pairs, _ = classified
    for case, v in pairs:
        got = (v.adapted.adapted, v.adapted.subgroup_size,
               v.strictly_aperiodic.strictly_aperiodic, v.strictly_aperiodic.closure_size)
        assert got == structure(case.measure), case.name
