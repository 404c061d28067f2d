"""Exact-arithmetic lattice walk: products, eigen data, defect decay."""
from decimal import ROUND_FLOOR, Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from motionwalk import rosenblatt
from motionwalk.rosenblatt import (
    DefectResult,
    QSqrt5,
    WindowVector,
    ZElem,
    apply_lambda_mu,
    defect_norm,
    eigen_parameter,
    gamma_power,
    phi_window,
    rosenblatt_measure,
    z_identity,
    z_inverse,
    z_multiply,
)

from oracles import (
    BudgetExceeded,
    aperiodicity_witness,
    integer_fractional_parts,
    measure_apply,
    phase_exponent,
)

Q0 = QSqrt5(Fraction(0), Fraction(0))
T_ZERO = (Q0, Q0)
# coefficient denominators 3, 7, 6, 2: the sweep's common denominator is 42
T_ODD = (QSqrt5(Fraction(1, 3), Fraction(2, 7)), QSqrt5(Fraction(-5, 6), Fraction(1, 2)))

small_int = st.integers(min_value=-30, max_value=30)
small_k = st.integers(min_value=-6, max_value=6)
elems = st.builds(ZElem, small_int, small_int, small_k)


def test_frozen_products():
    b = ZElem(1, 2, 1)
    c = ZElem(2, 3, 1)
    assert z_multiply(b, c) == ZElem(9, 15, 2)
    assert z_multiply(c, c) == ZElem(10, 16, 2)


def test_identity_and_inverse():
    e = z_identity()
    x = ZElem(3, -7, 2)
    assert z_multiply(e, x) == x
    assert z_multiply(x, e) == x
    assert z_multiply(x, z_inverse(x)) == e
    assert z_multiply(z_inverse(x), x) == e


@settings(max_examples=200)
@given(elems, elems, elems)
def test_multiplication_associative(x, y, z):
    assert z_multiply(z_multiply(x, y), z) == z_multiply(x, z_multiply(y, z))


def test_gamma_power_inverts():
    for k in range(-5, 6):
        g = gamma_power(k)
        h = gamma_power(-k)
        prod = (
            (g[0][0] * h[0][0] + g[0][1] * h[1][0], g[0][0] * h[0][1] + g[0][1] * h[1][1]),
            (g[1][0] * h[0][0] + g[1][1] * h[1][0], g[1][0] * h[0][1] + g[1][1] * h[1][1]),
        )
        assert prod == ((1, 0), (0, 1))


def test_measure_atoms():
    atoms = rosenblatt_measure()
    assert sum(w for _, w in atoms) == 1
    assert all(w == Fraction(1, 4) for _, w in atoms)
    assert {x for x, _ in atoms} == {
        ZElem(0, 0, 1), ZElem(1, 2, 1), ZElem(9, 15, 2), ZElem(10, 16, 2)}
    assert all(x.k in (1, 2) for x, _ in atoms)


def test_eigen_parameter_exact():
    t, lam = eigen_parameter()
    # characteristic relation lam^2 + 4 lam - 1 = 0
    rel = lam * lam + lam.scale(4) - QSqrt5(Fraction(1), Fraction(0))
    assert rel.is_zero()
    # left eigen relation t * Gamma^{-1} = lam * t, coefficient-exact
    assert (phase_exponent(t, 1, (1, 0)) - lam * t[0]).is_zero()
    assert (phase_exponent(t, 1, (0, 1)) - lam * t[1]).is_zero()
    assert t[0] == QSqrt5(Fraction(1), Fraction(0))
    assert t[1] == QSqrt5(Fraction(1, 2), Fraction(1, 2))


def test_eigen_parameter_is_built_once():
    assert eigen_parameter() is eigen_parameter()


def test_eigen_parameter_float_check():
    # brute-force float cross-check of the same eigen data
    gi = np.array(gamma_power(-1), dtype=float)
    lam_f = np.sqrt(5.0) - 2.0
    assert min(abs(np.linalg.eigvals(gi) - lam_f)) < 1e-12
    t_f = np.array([1.0, (1.0 + np.sqrt(5.0)) / 2.0])
    assert np.allclose(t_f @ gi, lam_f * t_f, atol=1e-12)


def test_phase_exponent_matches_eigen_scaling():
    t, lam = eigen_parameter()
    for m in (1, 4, 9):
        lam_m = QSqrt5(Fraction(1), Fraction(0))
        for _ in range(m):
            lam_m = lam_m * lam
        for v in ((1, 2), (9, 15), (10, 16)):
            tv = t[0].scale(v[0]) + t[1].scale(v[1])
            assert (phase_exponent(t, m, v) - lam_m * tv).is_zero()


def test_zero_parameter_reduces_to_plain_shift():
    phi = WindowVector(0, np.array([1.0, 2.0, -1.0], dtype=complex))
    out = apply_lambda_mu(T_ZERO, phi)
    # phases all 1: phi(m) -> (phi(m-1) + phi(m-2)) / 2
    expect = np.array([0.0, 0.5, 1.5, 0.5, -0.5])
    assert out.offset == 0
    assert np.allclose(out.values, expect, atol=1e-15)


def test_operator_contracts():
    t, _ = eigen_parameter()
    rng = np.random.default_rng(11)
    for off in (-3, 0, 5):
        w = WindowVector(off, rng.normal(size=7) + 1j * rng.normal(size=7))
        assert apply_lambda_mu(t, w).norm() <= w.norm() + 1e-12


def test_collapsed_operator_matches_atom_sum():
    t, _ = eigen_parameter()
    rng = np.random.default_rng(5)
    for phi in (phi_window(8),
                WindowVector(-4, rng.normal(size=9) + 1j * rng.normal(size=9))):
        gap = apply_lambda_mu(t, phi).sub(measure_apply(t, phi)).norm()
        assert gap <= 1e-12


def _decimal_fractional_part(q: QSqrt5) -> float:
    # q mod 1 in decimal, carried 40 digits past the size of q's coefficients
    digits = max(len(str(abs(c.numerator))) + len(str(c.denominator)) for c in (q.x, q.y))
    with localcontext() as ctx:
        ctx.prec = digits + 40
        val = (Decimal(q.x.numerator) / Decimal(q.x.denominator)
               + Decimal(q.y.numerator) / Decimal(q.y.denominator) * Decimal(5).sqrt())
        return float(val - val.to_integral_value(rounding=ROUND_FLOOR))


T_RATIONAL = (QSqrt5(Fraction(1, 3), 0), QSqrt5(Fraction(-2, 5), 0))  # no sqrt5 part
SWEEP_PARAMETERS = [eigen_parameter()[0], T_ODD, T_RATIONAL]
SWEEP_IDS = ["eigen", "odd", "rational"]
VS = [(1, 2), (9, 15), (10, 16)]


@pytest.mark.parametrize("t", SWEEP_PARAMETERS, ids=SWEEP_IDS)
def test_integer_sweep_matches_decimal_oracle(t):
    # 2001-row windows at three offsets; the last row carries the largest
    # amplification of the seeds' error
    for lo in (0, -4, 37):
        table = rosenblatt._fractional_parts(t, lo, lo + 2001, VS)
        for i in (0, 1, 7, 300, 2000):
            for x, v in zip(table[i], VS):
                gap = abs(x - _decimal_fractional_part(phase_exponent(t, lo + i, v)))
                assert min(gap, 1.0 - gap) <= 1e-15


@pytest.mark.parametrize("t", SWEEP_PARAMETERS, ids=SWEEP_IDS)
def test_recurrence_sweep_matches_per_entry_route(t):
    new = rosenblatt._fractional_parts(t, 0, 2050, VS)
    old = integer_fractional_parts(t, 0, 2050, VS)
    gap = np.abs(new - old)
    assert np.minimum(gap, 1.0 - gap).max() <= 1e-15


def _decimal_seed(x: int, y: int, d: int, p: int) -> int:
    # floor(2^p * ((x + y*sqrt5)/d mod 1)) in decimal, 40 digits to spare
    with localcontext() as ctx:
        ctx.prec = len(str(abs(x) + 3 * abs(y))) + len(str(1 << p)) + 40
        val = (Decimal(x) + Decimal(y) * Decimal(5).sqrt()) / Decimal(d)
        frac = val - val.to_integral_value(rounding=ROUND_FLOOR)
        return int((frac * (1 << p)).to_integral_value(rounding=ROUND_FLOOR))


def test_seed_is_the_exact_floor():
    # negative y floors below y*sqrt5, so a ceiling there is one unit high
    ys = list(range(-12, 13)) + [3 ** 60, -(3 ** 60) - 1, -(7 ** 41)]
    for x in (-9, 0, 4, 5 ** 30):
        for y in ys:
            for d in (1, 2, 42):
                for p in (1, 64, 200):
                    assert rosenblatt._seed(x, y, d, p) == _decimal_seed(x, y, d, p)


def test_odd_denominator_parameter_routes_agree():
    for n in (3, 8, 64, 1024):
        r = defect_norm(T_ODD, n)
        assert abs(r.direct - r.closed_form) <= 1e-12
    for n in (8, 64):
        phi = phi_window(n)
        assert apply_lambda_mu(T_ODD, phi).sub(measure_apply(T_ODD, phi)).norm() <= 1e-12


def test_defect_zero_parameter_hand_value():
    # all phases 1: rows give 1/n + 4/16n + 4/16n + 16/16n = 2.5/n
    for n in (8, 64):
        r = defect_norm(T_ZERO, n)
        assert r.direct == pytest.approx(2.5 / n, abs=1e-14)
        assert r.closed_form == pytest.approx(2.5 / n, abs=1e-14)


def test_defect_two_routes_agree():
    t, _ = eigen_parameter()
    for n in (8, 64, 1024):
        r = defect_norm(t, n)
        assert abs(r.direct - r.closed_form) <= 1e-10
        assert r.direct > 0 and r.closed_form > 0


def test_defect_norm_sweeps_once(monkeypatch):
    windows = []
    sweep = rosenblatt._fractional_parts

    def counted(t, lo, hi, vs):
        windows.append((lo, hi))
        return sweep(t, lo, hi, vs)

    monkeypatch.setattr(rosenblatt, "_fractional_parts", counted)
    defect_norm(eigen_parameter()[0], 16)
    assert windows == [(0, 18)]


@pytest.mark.parametrize("eigen", [True, False], ids=["eigen", "zero"])
def test_defect_direct_is_the_operator_route(eigen):
    t = eigen_parameter()[0] if eigen else T_ZERO
    for n in (3, 8, 64):
        phi = phi_window(n)
        assert defect_norm(t, n).direct == apply_lambda_mu(t, phi).sub(phi).norm() ** 2


def test_defect_decreases_toward_zero():
    t, _ = eigen_parameter()
    seq = [defect_norm(t, 2 ** j).direct for j in range(3, 11)]
    assert all(a > b for a, b in zip(seq, seq[1:]))
    assert seq[-1] < seq[0]
    # frozen scale: the defect tracks 3.7749/n on this family
    assert seq[1] * 16 == pytest.approx(3.7749, abs=2e-4)
    assert seq[-1] == pytest.approx(3.6864e-3, rel=1e-3)


def test_defect_rejects_tiny_window():
    with pytest.raises(ValueError):
        defect_norm(T_ZERO, 2)


def test_defect_result_dict():
    r = DefectResult(8, 0.1, 0.1)
    assert r.to_dict() == {"n": 8, "direct": 0.1, "closed_form": 0.1}


def test_witness_found_within_budget():
    assert aperiodicity_witness(12) is True


def test_witness_budget_exhaustion():
    with pytest.raises(BudgetExceeded):
        aperiodicity_witness(1)
    with pytest.raises(ValueError):
        aperiodicity_witness(0)
