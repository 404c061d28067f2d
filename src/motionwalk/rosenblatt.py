"""The lattice counterexample on G = Z^2 x| Z: an aperiodic walk that is
neither mixing nor ergodic, certified by an explicit approximate
eigenvector.

Z acts on Z^2 by powers of the unimodular matrix Gamma = [[1,2],[2,3]],
row vectors on the left: phi_k(n) = n*Gamma^k. The walk takes four atoms
with weight 1/4 each. Under the family of unitary representations
Lambda_t on l^2(Z), parametrized by t in the 2-torus, the walk operator
has 1 in its approximate point spectrum when t is chosen along the
contracting eigenvector of Gamma^{-1}. Arithmetic is exact over
Q(sqrt 5) and in integers; floats appear only in the phase table.

Entries of Gamma^{-m} grow like (2+sqrt5)^m, and the eigen-phase
lambda^m * (t.v) is the difference of two such giants. Gamma^{-1} has
characteristic polynomial x^2 + 4x - 1, so by Cayley-Hamilton every
exponent obeys s_{m+2} = s_m - 4 s_{m+1}, and the integer parts drop
out mod 1. The sweep seeds two rows exactly and steps the fractional
parts as P-bit fixed-point integers, a shift, a subtract and a mask per
entry. The seeds are off by less than 2^-P, the error grows by at most
a factor 5 per row, and P = 128 + bit_length(5^rows) keeps every entry
within 2^-128 of the true fractional part, mod 1.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt, lcm
from typing import List, Sequence, Tuple

import numpy as np

from .groups import Record

__all__ = [
    "ZElem",
    "QSqrt5",
    "WindowVector",
    "GAMMA",
    "GAMMA_INV",
    "z_identity",
    "z_multiply",
    "z_inverse",
    "gamma_power",
    "rosenblatt_measure",
    "eigen_parameter",
    "apply_lambda_mu",
    "phi_window",
    "defect_norm",
    "DefectResult",
]

GAMMA: Tuple[Tuple[int, int], Tuple[int, int]] = ((1, 2), (2, 3))
GAMMA_INV: Tuple[Tuple[int, int], Tuple[int, int]] = ((-3, 2), (2, -1))

Mat2 = Tuple[Tuple[int, int], Tuple[int, int]]
_IDENTITY2: Mat2 = ((1, 0), (0, 1))


@dataclass(frozen=True)
class ZElem:
    """Group element (n1, n2, k) of Z^2 x| Z."""

    n1: int
    n2: int
    k: int


@dataclass(frozen=True)
class QSqrt5:
    """Exact scalar x + y*sqrt(5) with rational coefficients."""

    x: Fraction
    y: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "x", Fraction(self.x))
        object.__setattr__(self, "y", Fraction(self.y))

    def __add__(self, other: "QSqrt5") -> "QSqrt5":
        return QSqrt5(self.x + other.x, self.y + other.y)

    def __sub__(self, other: "QSqrt5") -> "QSqrt5":
        return QSqrt5(self.x - other.x, self.y - other.y)

    def __neg__(self) -> "QSqrt5":
        return QSqrt5(-self.x, -self.y)

    def __mul__(self, other: "QSqrt5") -> "QSqrt5":
        return QSqrt5(
            self.x * other.x + 5 * self.y * other.y,
            self.x * other.y + self.y * other.x,
        )

    def scale(self, c: int) -> "QSqrt5":
        return QSqrt5(self.x * c, self.y * c)

    def is_zero(self) -> bool:
        return self.x == 0 and self.y == 0


def _mat_mul(a: Mat2, b: Mat2) -> Mat2:
    return (
        (a[0][0] * b[0][0] + a[0][1] * b[1][0], a[0][0] * b[0][1] + a[0][1] * b[1][1]),
        (a[1][0] * b[0][0] + a[1][1] * b[1][0], a[1][0] * b[0][1] + a[1][1] * b[1][1]),
    )


def gamma_power(k: int) -> Mat2:
    """Gamma^k for any integer k, exact (Gamma is unimodular)."""
    base = GAMMA if k >= 0 else GAMMA_INV
    e = abs(k)
    out = _IDENTITY2
    acc = base
    while e:
        if e & 1:
            out = _mat_mul(out, acc)
        acc = _mat_mul(acc, acc)
        e >>= 1
    return out


def z_identity() -> ZElem:
    return ZElem(0, 0, 0)


def z_multiply(x: ZElem, y: ZElem) -> ZElem:
    """(n, k)(m, l) = (n + m*Gamma^k, k + l), rows on the left."""
    g = gamma_power(x.k)
    return ZElem(
        x.n1 + y.n1 * g[0][0] + y.n2 * g[1][0],
        x.n2 + y.n1 * g[0][1] + y.n2 * g[1][1],
        x.k + y.k,
    )


def z_inverse(x: ZElem) -> ZElem:
    g = gamma_power(-x.k)
    return ZElem(
        -(x.n1 * g[0][0] + x.n2 * g[1][0]),
        -(x.n1 * g[0][1] + x.n2 * g[1][1]),
        -x.k,
    )


def rosenblatt_measure() -> List[Tuple[ZElem, Fraction]]:
    """Four atoms of weight 1/4: a, b, b*c, c*c with a=(0,0,1),
    b=(1,2,1), c=(2,3,1); the products are computed, not transcribed."""
    a = ZElem(0, 0, 1)
    b = ZElem(1, 2, 1)
    c = ZElem(2, 3, 1)
    w = Fraction(1, 4)
    return [(a, w), (b, w), (z_multiply(b, c), w), (z_multiply(c, c), w)]


_EIGEN = ((QSqrt5(Fraction(1), Fraction(0)), QSqrt5(Fraction(1, 2), Fraction(1, 2))),
          QSqrt5(Fraction(-2), Fraction(1)))


def eigen_parameter() -> Tuple[Tuple[QSqrt5, QSqrt5], QSqrt5]:
    """The contracting left eigenpair of Gamma^{-1}: lambda = sqrt5 - 2
    and t = (1, (1+sqrt5)/2), normalized to t1 = 1. Built once, at import:
    every call returns the same immutable pair."""
    return _EIGEN


class WindowVector:
    """Vector on Z supported on [offset, offset + len(values))."""

    def __init__(self, offset: int, values: np.ndarray) -> None:
        self.offset = int(offset)
        self.values = np.asarray(values, dtype=complex)

    def norm(self) -> float:
        return float(np.linalg.norm(self.values))

    def sub(self, other: "WindowVector") -> "WindowVector":
        lo = min(self.offset, other.offset)
        hi = max(self.offset + len(self.values), other.offset + len(other.values))
        out = np.zeros(hi - lo, dtype=complex)
        out[self.offset - lo:self.offset - lo + len(self.values)] += self.values
        out[other.offset - lo:other.offset - lo + len(other.values)] -= other.values
        return WindowVector(lo, out)


def phi_window(n: int) -> WindowVector:
    """Normalized indicator of [0, n): the approximate eigenvector family."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    return WindowVector(0, np.full(n, 1.0 / np.sqrt(n), dtype=complex))


def _seed(x: int, y: int, d: int, p: int) -> int:
    """floor(2^p * ((x + y*sqrt5)/d mod 1)), exactly: isqrt floors
    |y|*sqrt5*2^p, never an integer for y != 0, so a negative y takes
    minus the root minus one; floor((a + floor(b))/d) = floor((a + b)/d)."""
    r = isqrt(5 * y * y << 2 * p)
    return ((x << p) + (r if y >= 0 else -r - 1)) // d & ((1 << p) - 1)


def _fractional_parts(t: Sequence[QSqrt5], lo: int, hi: int,
                      vs: Sequence[Tuple[int, int]]) -> np.ndarray:
    """(hi - lo, len(vs)) table of t Gamma^{-m} v' mod 1, m in [lo, hi), by
    the module docstring's recurrence on F_m ~ 2^P (s_m mod 1), seeded at
    rows lo and lo + 1 by _seed. Since |e_{m+2}| <= |e_m| + 4 |e_{m+1}|,
    every entry is within 5^(hi - lo) 2^-P <= 2^-128 of the true value,
    mod 1, before its top 64 bits are rounded to a float."""
    coeffs = [c for q in t for c in (q.x, q.y)]
    d = lcm(*(c.denominator for c in coeffs))
    a0, b0, a1, b1 = (int(c * d) for c in coeffs)
    p = 128 + (5 ** (hi - lo)).bit_length()
    seeds = []
    for m in (lo, lo + 1):
        g = gamma_power(-m)
        us = [(g[0][0] * v0 + g[0][1] * v1, g[1][0] * v0 + g[1][1] * v1) for v0, v1 in vs]
        seeds.append([_seed(a0 * u0 + a1 * u1, b0 * u0 + b1 * u1, d, p) for u0, u1 in us])
    mask, shift = (1 << p) - 1, p - 64
    table = np.empty((hi - lo, len(vs)))
    for j, (f0, f1) in enumerate(zip(*seeds)):
        col = [f0 >> shift, f1 >> shift]
        for _ in range(hi - lo - 2):
            f0, f1 = f1, (f0 - (f1 << 2)) & mask
            col.append(f1 >> shift)
        table[:, j] = col[:hi - lo]
    return table * 2.0 ** -64


def _phases(t: Sequence[QSqrt5], lo: int, hi: int,
            vs: Sequence[Tuple[int, int]] = ((1, 2), (9, 15), (10, 16))) -> np.ndarray:
    """(hi - lo, len(vs)) table of E_m(v) = exp(2 pi i t Gamma^{-m} v') for
    m in [lo, hi), from one sweep; by default the columns are E_m(1,2),
    E_m(9,15), E_m(10,16)."""
    return np.exp(2j * np.pi * _fractional_parts(t, lo, hi, vs))


def _collapsed(e: np.ndarray, phi: WindowVector) -> WindowVector:
    """The collapsed operator on phi, given the phase table e of its rows
    [offset, offset + len + 2)."""
    p = np.pad(phi.values, 2)  # p[i + 2] = phi(offset + i)
    return WindowVector(phi.offset, 0.25 * (1.0 + e[:, 0]) * p[1:-1]
                        + 0.25 * (e[:, 1] + e[:, 2]) * p[:-2])


def apply_lambda_mu(t: Sequence[QSqrt5], phi: WindowVector) -> WindowVector:
    """The walk operator in collapsed form: the k=1 atoms contribute
    (1/4)[1 + E_m(1,2)] phi(m-1) and the k=2 atoms
    (1/4)[E_m(9,15) + E_m(10,16)] phi(m-2), with
    E_m(v) = exp(2 pi i t Gamma^{-m} v'). Window grows by two."""
    return _collapsed(_phases(t, phi.offset, phi.offset + len(phi.values) + 2), phi)


@dataclass(frozen=True)
class DefectResult(Record):
    n: int
    direct: float
    closed_form: float


def defect_norm(t: Sequence[QSqrt5], n: int) -> DefectResult:
    """Squared defect ||A phi_n - phi_n||^2 of the walk operator A on the
    normalized window phi_n, via two routes: the operator itself and a
    closed-form row expansion. Both read one phase table of rows
    [0, n + 2); the tests check the operator against a per-atom sweep of
    its own (oracles.measure_apply).

    The expansion groups rows of A phi_n - phi_n by position: m=0 gives
    1/n; m=1 gives |1 + E_1(1,2) - 4|^2/(16n); interior rows 2 <= j <=
    n-1 give |1 + E_j(1,2) + E_j(9,15) + E_j(10,16) - 4|^2/(16n) with the
    exponent index following the row (the sweep index j, not the window
    size); m=n drops the -4 because phi_n(n) = 0; m=n+1 keeps only the
    shift-by-two pair. Grouping was fixed against the direct route, which
    is authoritative."""
    if n < 3:
        raise ValueError(f"need n >= 3, got {n}")
    phi = phi_window(n)
    e = _phases(t, 0, n + 2)
    direct = _collapsed(e, phi).sub(phi).norm() ** 2

    eb, ebc, ecc = e[1:].T  # rows m = 1 .. n+1
    rows = 1.0 + eb + ebc + ecc
    rows[:n - 1] -= 4.0
    rows[0] = 1.0 + eb[0] - 4.0
    rows[n] = ebc[n] + ecc[n]
    closed = 1.0 / n + float(np.sum(np.abs(rows) ** 2 / (16.0 * n)))
    return DefectResult(n, direct, closed)
