"""Classify probability measures on finite motion groups.

Six conditions on a probability measure mu:

  (SR)  every nontrivial dual block of the Fourier transform has
        spectral radius < 1 (equivalent to mixing),
  (S)   1 is not in the spectrum of any nontrivial block (ergodicity),
  (A)   the support generates the whole group (adapted),
  (ASA) the support is not contained in a coset of a proper normal
        subgroup (strictly aperiodic),
  (M)   empirical mixing: the distance d(w) = ||w - m u||_1 of w = mu^n,
        of mass m, to m times the Haar (uniform) measure u, along dyadic n,
  (E)   empirical ergodicity: the same for Cesaro averages of powers.

The paper's definition is the sup form, sup_x ||f_x * w||_1 over the
mean-zero basis f_x = delta_x - delta_e. d brackets it, d <= sup <= 2d:
the translates delta_x * w average to m u, and each lies d from m u.
(M) and (E) decide on 2d: a positive verdict certifies the sup below the
threshold, a negative one a sup of at least d > 5 x threshold.

(A) and (ASA) are exact, from one subgroup closure (_closure). It keeps
a seed element only when it lies outside the subgroup built so far; by
Lagrange each kept element at least doubles that subgroup, so at most
log2 |G| are kept. Lagrange also ends it early: more than |G|/p
elements, p the least prime dividing |G|, generate G, and so does a
subgroup of prime index with one element outside it. (ASA) closes the
differences s0^-1 s under conjugation by the d unit translations and
the elements of K. These generate G, and in a finite group a subgroup
closed under conjugation by a generating set is normal, so the result
is the normal closure (Holt, Eick and O'Brien, Handbook of
Computational Group Theory, 2005).

"Nontrivial blocks" means all nonzero dual-orbit blocks plus the
complement of the constants line inside the zero-orbit block; the
trivial representation lives exactly on that line and is excluded.

(SR), (S) and the empirical curves read one stack of blocks
P = Lambda_alpha(mu) of the real part of mu, which is a probability
within PROBABILITY_TOL. For a real mu, orbit_spectra's
mu_hat(Lambda_alpha) = Lambda_alpha(conj mu)^* is P^*, with the same
radius, norm and sigma_min(I - P), and Lambda_{-alpha}(mu) is the
conjugate of P, so the orbits of alpha and -alpha always tie. Among
tied worst blocks, rounding picks the witness.

Spectral verdicts are tri-state. Strict inequalities cannot be
certified at the boundary, so values inside a guard band around the
decision threshold come back INDETERMINATE instead of being forced.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .errors import EmptySupport
from .groups import Character, GElem, MotionGroup, Record, inverse, products
from .measures import GroupMeasure, require_probability
from .reps import _blocks, _dyadic_powers, _measure_of_blocks
from .spectral import SPECTRAL_TOL, OrbitSpectral, _block_spectra

__all__ = [
    "TriState",
    "BlockRecord",
    "ConditionCheck",
    "AdaptedResult",
    "AperiodicResult",
    "DecayCurve",
    "Verdict",
    "check_sr",
    "check_s",
    "adapted",
    "strictly_aperiodic_check",
    "empirical_mixing",
    "empirical_ergodic",
    "empirical_weak_mixing",
    "cross_check",
]

# fraction of tol separating FAILS from INDETERMINATE
GUARD_FRACTION = 8.0

# default budget of the mixing curve and fixed budget of the Cesaro
# curves: the last n of mu^n and of the ergodic and weak-mixing averages
MIXING_N_MAX = 1024
CESARO_N_MAX = 512

# final values below which the empirical curves count as decayed
MIXING_THRESHOLD = 1e-6
ERGODIC_THRESHOLD = 0.02
WEAK_MIXING_THRESHOLD = 0.01

# most complex entries _curves reduces in one batch of rows or of Gram
# sums. 2^15 is the least power of two at which the 5-atom walk at
# |G| = 1024 (21 rows of 1056 entries) reads all its rows back at once,
# and a suite case (at most 4928 Gram entries) makes one _row_max; from
# |G| = 16384 on each row and each Gram sum is reduced alone. Swept from
# 2^12 to 2^20 (2 vCPU, BLAS on 1 thread): the suite's curves took the same
# time within noise from 2^14 up, and the 5-atom walk peaked at 38, 41 and
# 43 MB at |G| = 1024, 9216 and 16384 (37, 40 and 43 MB at 2^12; 39, 44 and
# 45 MB at 2^16, above the unbatched 38 MB at 1024; 39, 60 and 79 MB at 2^20)
CURVE_BATCH_ENTRIES = 1 << 15


class TriState(str, Enum):
    HOLDS = "HOLDS"
    FAILS = "FAILS"
    INDETERMINATE = "INDETERMINATE"


@dataclass(frozen=True)
class BlockRecord(Record):
    """One nontrivial block with the quantity the condition tests."""
    representative: Character
    is_complement: bool
    value: float


@dataclass(frozen=True)
class ConditionCheck(Record):
    condition: str
    verdict: TriState
    records: Tuple[BlockRecord, ...]
    witness: Optional[BlockRecord]
    tol: float


@dataclass(frozen=True)
class AdaptedResult(Record):
    adapted: bool
    subgroup_size: int


@dataclass(frozen=True)
class AperiodicResult(Record):
    strictly_aperiodic: bool
    closure_size: int


@dataclass(frozen=True)
class DecayCurve(Record):
    """An empirical decay quantity sampled at dyadic times."""
    points: Tuple[Tuple[int, float], ...]
    threshold: float
    verdict: str
    decays: Optional[bool]

    @property
    def conclusive(self) -> bool:
        return self.decays is not None


@dataclass(frozen=True)
class Verdict(Record):
    sr: ConditionCheck
    s: ConditionCheck
    adapted: AdaptedResult
    strictly_aperiodic: AperiodicResult
    empirical_mixing: DecayCurve
    empirical_ergodic: DecayCurve
    weak_mixing_empirical: DecayCurve
    consistency: Tuple[str, ...]


# ---------------------------------------------------------------- spectral

# _block_spectra's records: every dual orbit, zero orbit first, and the complement
_Spectra = Tuple[Tuple[OrbitSpectral, ...], OrbitSpectral]


def _records(spectra: _Spectra, field: str) -> Tuple[BlockRecord, ...]:
    """field of the nonzero-orbit records, then of the complement's."""
    per_orbit, comp = spectra
    return tuple(BlockRecord(o.representative, c, getattr(o, field))
                 for o, c in [(o, False) for o in per_orbit[1:]] + [(comp, True)])


def check_sr(mu: GroupMeasure, tol: float = SPECTRAL_TOL) -> ConditionCheck:
    """Spectral radius < 1 on every nontrivial block, tri-state."""
    require_probability(mu)
    return _sr_from_spectra(_block_spectra(mu.group, _blocks(mu.group, mu.weights.real), tol), tol)


def _sr_from_spectra(spectra: _Spectra, tol: float) -> ConditionCheck:
    records = _records(spectra, "spectral_radius")
    worst = max(records, key=lambda r: r.value, default=None)
    verdict = (TriState.HOLDS if worst is None or worst.value < 1.0 - tol
               else TriState.FAILS if worst.value >= 1.0 - tol + tol / GUARD_FRACTION
               else TriState.INDETERMINATE)
    return ConditionCheck("SR", verdict, records, worst, tol)


def check_s(mu: GroupMeasure, tol: float = SPECTRAL_TOL) -> ConditionCheck:
    """1 not in the spectrum of any nontrivial block, by singular-value margin."""
    require_probability(mu)
    return _s_from_spectra(_block_spectra(mu.group, _blocks(mu.group, mu.weights.real), tol), tol)


def _s_from_spectra(spectra: _Spectra, tol: float) -> ConditionCheck:
    records = _records(spectra, "margin")
    worst = min(records, key=lambda r: r.value, default=None)
    verdict = (TriState.HOLDS if worst is None or worst.value > tol
               else TriState.FAILS if worst.value <= tol / GUARD_FRACTION
               else TriState.INDETERMINATE)
    return ConditionCheck("S", verdict, records, worst, tol)


# -------------------------------------------------------------- structural

def _closure(g: MotionGroup, seed: Sequence[int], conjugators: Sequence[int] = (),
             conjugator_inverses: Sequence[int] = ()) -> np.ndarray:
    """Sorted indices of the smallest subgroup H that holds the seed and
    is closed under x -> c x c^-1 for every c in conjugators, whose
    inverses conjugator_inverses lists in the same order.

    The seed is walked in order, and an element x is kept only if it lies
    outside H so far; H then grows to its closure under right
    multiplication by every kept element and its dyadic powers
    x^(2^j), 2^j < [G : H]. By Lagrange each kept element at least
    doubles H, so at most log2 |G| are kept. The powers reach x^m,
    m < [G : H], in one step per bit of m: a long cycle costs log2 of its
    length in products calls, not its length. Once the seed is used up,
    the conjugates c x c^-1 of the elements kept since become the seed,
    until none is new: then every kept element's conjugates lie in H, and
    with them all of c H c^-1.

    Lagrange ends the walk early, and exactly (_settled): a proper
    subgroup has at most |G|/p elements, p the least prime dividing |G|.
    So the answer is G, with no products call, when the seed (distinct
    indices) with the identity has more, and G as soon as H has more.
    And each element of the seed or of the conjugates is tested against
    a closed H: if one lies outside and the index [G : H] is prime, the
    subgroup it generates with H strictly holds H and has an order
    dividing |G|, so it is G.
    """
    if _settled(g, np.count_nonzero(seed) + 1):
        return np.arange(g.size)
    member = np.zeros(g.size, dtype=bool)
    member[0] = True                       # index 0 is the identity
    order = 1
    steps = np.zeros(0, dtype=np.int64)
    conj = np.asarray(conjugators, dtype=np.int64)
    conj_inv = np.asarray(conjugator_inverses, dtype=np.int64)
    kept: List[int] = []                   # kept since the last conjugation
    pending = np.asarray(seed, dtype=np.int64)
    while order < g.size:
        pending = pending[~member[pending]]
        if not pending.size:
            if not (kept and conj.size):
                break
            pending = products(g, products(g, conj[:, None], kept), conj_inv[:, None]).ravel()
            kept = []
            continue
        if g.size // order in g._order_primes:
            return np.arange(g.size)
        x = int(pending[0])
        kept.append(x)
        powers = [x]
        while 2 ** len(powers) < g.size // order:
            p = int(products(g, powers[-1], powers[-1]))
            if member[p] or p in powers:   # the rest lie in H or repeat
                break
            powers.append(p)
        # H times the old steps stays in H: only the new steps leave it
        frontier = (products(g, np.flatnonzero(member)[:, None], powers) if order > 1
                    else np.array(powers))
        steps = np.concatenate([steps, powers])
        while True:
            fresh = np.unique(frontier[~member[frontier]])
            if not fresh.size:
                break
            member[fresh] = True
            order += fresh.size
            if _settled(g, order):
                return np.arange(g.size)
            frontier = products(g, fresh[:, None], steps)
    return np.flatnonzero(member)


def _settled(g: MotionGroup, size: int) -> bool:
    """Is every subgroup of g with at least size elements all of g? By
    Lagrange a proper one has at most |G|/p, p the least prime dividing
    |G|."""
    return g.size == 1 or size * g._order_primes[0] > g.size


def adapted(mu: GroupMeasure) -> AdaptedResult:
    """Does the support generate the whole group?"""
    require_probability(mu)
    closure = _closure(mu.group, mu.support())
    return AdaptedResult(closure.size == mu.group.size, int(closure.size))


def strictly_aperiodic_check(mu: GroupMeasure) -> AperiodicResult:
    """Is the support outside every coset of a proper normal subgroup?

    With s0 in the support, the support lies in a coset of a proper
    normal subgroup exactly when the normal closure N of the differences
    {s0^{-1} s : s in supp} is proper. N comes from _closure, with the d
    unit translations and the elements of K as conjugators: together they
    generate G. A subgroup H of a finite group with c H c^-1 inside H has
    c H c^-1 = H, so it is closed under conjugation by c^-1 too, and then
    by every word in the conjugators: it is normal, and the smallest
    normal subgroup holding the differences is N (Holt, Eick and O'Brien,
    Handbook of Computational Group Theory, 2005, on normal closures).
    Validates only that the support is nonempty, so it can probe
    non-probability weight vectors too. The differences are as many as
    the support, left translation being injective, and hold the identity:
    when _closure's Lagrange bound settles them, they are not built.
    """
    g = mu.group
    supp = mu.support()
    if supp.size == 0:
        raise EmptySupport("measure has empty support")
    if _settled(g, supp.size):
        return AperiodicResult(True, g.size)
    d = g.abelian.rank
    diffs = products(g, g.index(inverse(g, g.element(int(supp[0])))), supp)
    # (e_i, 0)^-1 = (-e_i, 0) and (0, k)^-1 = (0, k^-1); g.index reduces mod n
    units = [g.index(GElem(tuple(int(i == j) for j in range(d)), 0)) for i in range(d)]
    unit_inverses = [g.index(GElem(tuple(-int(i == j) for j in range(d)), 0)) for i in range(d)]
    ks = np.arange(1, g.k.order)
    closure = _closure(g, diffs, np.concatenate([units, ks]).astype(np.int64),
                       np.concatenate([unit_inverses, g.k.inverses[ks]]).astype(np.int64))
    return AperiodicResult(closure.size == g.size, int(closure.size))


# --------------------------------------------------------------- empirical

def _decide(points: Sequence[Tuple[int, float]], threshold: float,
            pos: str, neg: str) -> Tuple[str, Optional[bool]]:
    """Positive when the final value is below threshold; negative only on a
    stable floor: the last three dyadic samples sit well above the
    threshold and are flat to near machine precision. Anything flatter
    than a true constant floor but still decaying (a spectral radius
    extremely close to 1) stays INCONCLUSIVE rather than risking a verdict
    the spectral checks would contradict."""
    final = points[-1][1]
    if final < threshold:
        return pos, True
    tail = [v for _, v in points[-3:]]
    if len(points) >= 3 and min(tail) > 10.0 * threshold \
            and max(tail) <= min(tail) * (1.0 + 1e-9):
        return neg, False
    return "INCONCLUSIVE", None


def _upper(points: Sequence[Tuple[int, float]]) -> List[Tuple[int, float]]:
    """The upper end 2d of each point's bracket d <= sup gap <= 2d."""
    return [(n, 2.0 * d) for n, d in points]


def empirical_mixing(mu: GroupMeasure, n_max: int = MIXING_N_MAX) -> DecayCurve:
    """d(mu^n) = ||mu^n - m u||_1 at dyadic n, m the mass of mu^n: the
    bracket d <= sup_x ||f_x * mu^n||_1 <= 2d of the paper's sup form, whose
    upper end the verdict reads. Lambda_alpha(mu^n) is Lambda_alpha(mu)^n,
    so mu^n is read back from the block powers, which come by repeated
    squaring."""
    require_probability(mu)
    return _curves(mu.group, _blocks(mu.group, mu.weights.real), n_max, 1)[0]


def empirical_ergodic(mu: GroupMeasure, n_max: int = CESARO_N_MAX) -> DecayCurve:
    """d(S_n) = ||S_n - m u||_1 for S_n = (1/n) sum_{k=1..n} mu^k, dyadic n,
    m the mass of S_n, bracketing sup_x ||f_x * S_n||_1 as in empirical_mixing.

    The k = 0 term is left out: it contributes a fixed delta_e / n that
    says nothing about mu and would dominate every average (the uniform
    measure must come out exactly 0). Lambda_alpha(mu^k) is
    Lambda_alpha(mu)^k, so the sums walk the Fourier-block powers and S_n
    is read back from the block sums.
    """
    require_probability(mu)
    return _curves(mu.group, _blocks(mu.group, mu.weights.real), 1, n_max)[1]


def empirical_weak_mixing(mu: GroupMeasure, n_max: int = CESARO_N_MAX) -> DecayCurve:
    """Cesaro mean of squares (1/n) sum_{j=1..n} |<f_x * mu^j, h>|^2, maxed
    over x and over test functions h.

    h ranges over every matrix coefficient of every induced block
    Lambda_alpha, so a term is [(Lambda_alpha(x) - I) P^j]_{k',c} with
    P = Lambda_alpha(mu). These coefficients span all functions on G: by
    Mackey every irreducible of G sits in some Lambda_alpha, so Peter-Weyl
    applies. Any other bounded h is a fixed combination of them, so its
    averages decay whenever theirs do. The curve averages squares: by the
    Koopman-von Neumann lemma (Walters, ch. 1), bounded a_j >= 0 have
    (1/n) sum a_j -> 0 exactly when (1/n) sum a_j^2 -> 0, so the squares
    decide weak mixing as the values do. Every point differs from the mean
    of |.|; the verdict reads floors on its scale (_weak_mixing_verdict),
    and every verdict of the frozen acceptance-suite census stays.

    The squares sum through the per-orbit Gram tensor
    G_n[c] = sum_{j<=n} P^j[:, c] P^j[:, c]^*, which doubles as
    G_2n = G_n + P^n G_n (P^n)^*, and the max over x is in closed form
    (_row_max): no term is built per element of G.
    """
    require_probability(mu)
    return _curves(mu.group, _blocks(mu.group, mu.weights.real), 1, n_max)[2]


def _row_max(gram: np.ndarray, orders: np.ndarray) -> np.ndarray:
    """(..., orbits, c, i, k') max over the phases a of x = (a, k),
    k = k' i^{-1}, of sum_j |[(Lambda_alpha(x) - I) P^j]_{k',c}|^2, from
    gram[..., r, c, i, l] = sum_j P^j[i, c] conj(P^j[l, c]) and the group's
    phase orders (MotionGroup._phase_orders): the max over every x of G is
    the max over i, which the caller takes with whatever else it maxes
    over. Leading axes stack Gram sums, each reduced as on its own.

    Row k' of Lambda_alpha(a, k) holds phi = <a, beta_{k'}> in column
    i = k^{-1} k', so the sum is gram[c,i,i] + gram[c,k',k'] - 2 Re(phi z)
    with z = gram[c,i,k']. Over the m-th roots of unity phi, -2 Re(phi z)
    peaks at 2|z| cos(delta), delta the distance from arg z + pi to the
    nearest multiple of 2 pi / m; k sweeps i over all of K. The chain runs
    in place on two arrays of gram's shape.
    """
    diag = np.einsum("...cii->...ci", gram).real
    step = 2.0 * np.pi / orders[:, None, None, :]
    half = step / 2
    delta = np.angle(gram)
    delta += np.pi
    np.remainder(delta, step, out=delta)
    delta -= half
    np.abs(delta, out=delta)
    np.subtract(half, delta, out=delta)
    rows = np.abs(gram)
    rows *= 2.0
    rows *= np.cos(delta, out=delta)
    rows += np.add(diag[..., :, None], diag[..., None, :], out=delta)
    return rows


def _weak_mixing_verdict(points: Sequence[Tuple[int, float]],
                         window: float) -> Tuple[str, Optional[bool]]:
    """_decide for mean squares, on the scale of |.| the threshold is set
    for: a floor c that never decays reads c there, but c^2 in a mean of
    squares. So the root mean square decides as in _decide; it is at least
    the mean of |.| (Cauchy-Schwarz) and equals it on a constant floor.
    The mean of squares below the threshold also reads WEAK_MIXING when the
    root mean square of the last window (n_max/2, n_max] is below it too:
    a floor reads c there, a geometric decay next to nothing."""
    if points[-1][1] < WEAK_MIXING_THRESHOLD and window < WEAK_MIXING_THRESHOLD:
        return "WEAK_MIXING", True
    return _decide([(n, float(np.sqrt(v))) for n, v in points], WEAK_MIXING_THRESHOLD,
                   "WEAK_MIXING", "NOT_WEAK_MIXING")


class _Batch:
    """Arrays of size entries each, with a key each, reduced together by
    reduce(stack, keys) as soon as one more array would pass
    CURVE_BATCH_ENTRIES entries, so a batch holds at least one. A
    one-array batch is reduced on the view a[None], not on a stacked copy."""

    def __init__(self, reduce: Callable[[np.ndarray, list], None], size: int):
        self.reduce, self.room = reduce, max(1, CURVE_BATCH_ENTRIES // size)
        self.arrays: List[np.ndarray] = []
        self.keys: list = []

    def add(self, key, a: np.ndarray) -> None:
        self.arrays.append(a)
        self.keys.append(key)
        if len(self.arrays) == self.room:
            self.flush()

    def flush(self) -> None:
        if self.arrays:
            arrays, keys, self.arrays, self.keys = self.arrays, self.keys, [], []
            self.reduce(arrays[0][None] if len(arrays) == 1 else np.array(arrays), keys)


def _curves(g: MotionGroup, p: np.ndarray, mixing_n_max: int,
            cesaro_n_max: int) -> Tuple[DecayCurve, DecayCurve, DecayCurve]:
    """The mixing, ergodic and weak-mixing curves of a probability measure
    on g, from its block stack p = P = Lambda_alpha(mu) and one chain of
    its dyadic powers P^n.

    The mixing rows are the powers themselves. The block sums
    S_n = sum_{k=1..n} P^k double as S_2n = S_n + P^n S_n, and the Gram sums
    of empirical_weak_mixing as G_2n = G_n + P^n G_n (P^n)^*. The rows and
    the Gram sums are each collected into batches of at most
    CURVE_BATCH_ENTRIES complex entries (_Batch), and a batch is reduced as
    soon as one more array would overflow it: one read-back
    (_measure_of_blocks) for the mixing and ergodic rows of a batch, one
    _row_max for its Gram sums, the last window's G_n - G_{n/2} in the last
    Gram batch. Besides the batches, the chain holds P^n, S_n, G_n and
    G_{n/2}; a group whose rows or Gram sums pass the bound reduces each
    on its own as soon as it is made. Each row w reports d(w) against its
    own mass m, not 1: the chain's mass drifts like (1 + eps)^n, and u
    scaled by 1 would break d <= sup gap. A curve a caller does not read
    costs one row at n_max = 1.
    """
    for n_max in (mixing_n_max, cesaro_n_max):
        if n_max < 1 or n_max & (n_max - 1):
            raise ValueError(f"n_max must be a power of two, got {n_max}")
    n_mix, n_ces = mixing_n_max.bit_length(), cesaro_n_max.bit_length()
    orders = g._phase_orders
    out = {}

    def read_rows(stack: np.ndarray, keys: list) -> None:
        # the ergodic rows are the averages S_n / n
        rows = _measure_of_blocks(g, stack).real
        rows /= np.array([n if curve == "erg" else 1 for curve, n in keys])[:, None]
        dists = np.abs(rows - rows.sum(axis=1, keepdims=True) / g.size).sum(axis=1)
        out.update(zip(keys, dists.tolist()))

    def read_grams(stack: np.ndarray, keys: list) -> None:
        # one max per Gram sum, over every x, k', c and orbit at once
        peaks = _row_max(stack, orders).reshape(len(keys), -1).max(axis=1)
        out.update(zip(keys, peaks.tolist()))

    rows = _Batch(read_rows, p.size)
    grams = _Batch(read_grams, p.size * g.k.order)
    # averages run over j = 1..n: the j = 0 term is n-independent and would
    # mask the decay (uniform mu must come out exactly 0)
    s, last, gram = p, 0, np.einsum("ric,rlc->rcil", p, p.conj())
    for k, pn in enumerate(_dyadic_powers(p, max(mixing_n_max, cesaro_n_max))):
        n = 1 << k
        if k < n_mix:
            rows.add(("mix", n), pn)
        if k < n_ces:
            rows.add(("erg", n), s)
            grams.add(("wm", n), gram)
        if k + 1 < n_ces:
            s = s + pn @ s
            # G_{n/2} goes before G_2n is made, and G_2n is summed in place
            last = gram
            gram = pn[:, None] @ gram @ pn[:, None].conj().swapaxes(-1, -2)
            gram += last
        elif k + 1 == n_ces:
            # the Gram sum over the last window j in (n/2, n]; only a
            # batch may still hold the chain's sums
            tail = gram - last
            del s, last, gram
            grams.add("window", tail)
            grams.flush()
    rows.flush()

    mix = tuple((1 << k, out["mix", 1 << k]) for k in range(n_mix))
    erg = tuple((1 << k, out["erg", 1 << k]) for k in range(n_ces))
    wm = tuple((1 << k, out["wm", 1 << k] / (1 << k)) for k in range(n_ces))
    # the window's mean of squares; cancellation can leave a vanishing one a
    # hair below 0
    window = max(out["window"], 0.0) / (cesaro_n_max - cesaro_n_max // 2)
    return (DecayCurve(mix, MIXING_THRESHOLD,
                       *_decide(_upper(mix), MIXING_THRESHOLD, "MIXING", "NOT_MIXING")),
            DecayCurve(erg, ERGODIC_THRESHOLD,
                       *_decide(_upper(erg), ERGODIC_THRESHOLD, "ERGODIC", "NOT_ERGODIC")),
            DecayCurve(wm, WEAK_MIXING_THRESHOLD,
                       *_weak_mixing_verdict(wm, float(np.sqrt(window)))))


# ------------------------------------------------------------- cross-check

def _grid_violations(sr: ConditionCheck, s: ConditionCheck,
                     ad: AdaptedResult, sa: AperiodicResult,
                     mix: DecayCurve, erg: DecayCurve,
                     wm: DecayCurve) -> List[str]:
    out = []
    if sr.verdict == TriState.HOLDS and s.verdict == TriState.FAILS:
        out.append("SR holds but S fails")
    struct_sr = ad.adapted and sa.strictly_aperiodic
    if sr.verdict == TriState.HOLDS and not struct_sr:
        out.append("SR holds but not (adapted and strictly aperiodic)")
    if sr.verdict == TriState.FAILS and struct_sr:
        out.append("SR fails but adapted and strictly aperiodic")
    if s.verdict == TriState.HOLDS and not ad.adapted:
        out.append("S holds but not adapted")
    if s.verdict == TriState.FAILS and ad.adapted:
        out.append("S fails but adapted")
    if mix.conclusive and sr.verdict != TriState.INDETERMINATE:
        if mix.decays != (sr.verdict == TriState.HOLDS):
            out.append("empirical mixing disagrees with SR")
    if erg.conclusive and s.verdict != TriState.INDETERMINATE:
        if erg.decays != (s.verdict == TriState.HOLDS):
            out.append("empirical ergodicity disagrees with S")
    if wm.conclusive and mix.conclusive and wm.decays != mix.decays:
        out.append("weak mixing disagrees with mixing")
    if erg.decays is True and not ad.adapted:
        out.append("empirically ergodic but not adapted")
    if mix.decays is True and not sa.strictly_aperiodic:
        out.append("empirically mixing but not strictly aperiodic")
    return out


def cross_check(mu: GroupMeasure, tol: float = SPECTRAL_TOL,
                mixing_n_max: int = MIXING_N_MAX, ergodic_n_max: int = CESARO_N_MAX) -> Verdict:
    """Evaluate all six conditions and list violated implications."""
    require_probability(mu)
    p = _blocks(mu.group, mu.weights.real)
    spectra = _block_spectra(mu.group, p, tol)
    sr = _sr_from_spectra(spectra, tol)
    s = _s_from_spectra(spectra, tol)
    ad = adapted(mu)
    sa = strictly_aperiodic_check(mu)
    mix, erg, wm = _curves(mu.group, p, mixing_n_max, ergodic_n_max)
    violations = _grid_violations(sr, s, ad, sa, mix, erg, wm)
    return Verdict(sr, s, ad, sa, mix, erg, wm, tuple(violations))
