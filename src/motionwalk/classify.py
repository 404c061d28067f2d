"""Classify probability measures on finite motion groups.

Six conditions on a probability measure mu:

  (SR)  every nontrivial dual block of the Fourier transform has
        spectral radius < 1 (equivalent to mixing),
  (S)   1 is not in the spectrum of any nontrivial block (ergodicity),
  (A)   the support generates the whole group (adapted),
  (ASA) the support is not contained in a coset of a proper normal
        subgroup (strictly aperiodic),
  (M)   empirical mixing: sup over the mean-zero basis of
        tv_norm(f * mu^n) along dyadic n,
  (E)   empirical ergodicity: the same for Cesaro averages of powers.

"Nontrivial blocks" means all nonzero dual-orbit blocks plus the
complement of the constants line inside the zero-orbit block; the
trivial representation lives exactly on that line and is excluded.

Spectral verdicts are tri-state. Strict inequalities cannot be
certified at the boundary, so values inside a guard band around the
decision threshold come back INDETERMINATE instead of being forced.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .errors import EmptySupport
from .groups import Character, MotionGroup, dual_orbits, dual_table, right_products
from .measures import GroupMeasure, convolve, require_probability
from .reps import _blocks
from .spectral import OrbitSpectral, orbit_spectra

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

# fixed budgets of the Cesaro curves: the last n of the ergodic and
# weak-mixing averages, and the seed of the random test functions
CESARO_N_MAX = 512
WEAK_MIXING_SEED = 7


class TriState(str, Enum):
    HOLDS = "HOLDS"
    FAILS = "FAILS"
    INDETERMINATE = "INDETERMINATE"


@dataclass(frozen=True)
class BlockRecord:
    """One nontrivial block with the quantity the condition tests."""
    representative: Character
    is_complement: bool
    value: float

    def to_dict(self) -> dict:
        return {
            "representative": list(self.representative.alpha),
            "is_complement": self.is_complement,
            "value": self.value,
        }


@dataclass(frozen=True)
class ConditionCheck:
    condition: str
    verdict: TriState
    records: Tuple[BlockRecord, ...]
    witness: Optional[BlockRecord]
    tol: float

    def to_dict(self) -> dict:
        return {
            "condition": self.condition,
            "verdict": self.verdict.value,
            "records": [r.to_dict() for r in self.records],
            "witness": self.witness.to_dict() if self.witness else None,
            "tol": self.tol,
        }


@dataclass(frozen=True)
class AdaptedResult:
    adapted: bool
    subgroup_size: int

    def to_dict(self) -> dict:
        return {"adapted": self.adapted, "subgroup_size": self.subgroup_size}


@dataclass(frozen=True)
class AperiodicResult:
    strictly_aperiodic: bool
    closure_size: int

    def to_dict(self) -> dict:
        return {"strictly_aperiodic": self.strictly_aperiodic,
                "closure_size": self.closure_size}


@dataclass(frozen=True)
class DecayCurve:
    """An empirical decay quantity sampled at dyadic times."""
    points: Tuple[Tuple[int, float], ...]
    threshold: float
    verdict: str
    decays: Optional[bool]

    @property
    def conclusive(self) -> bool:
        return self.decays is not None

    def to_dict(self) -> dict:
        return {
            "points": [[n, v] for n, v in self.points],
            "threshold": self.threshold,
            "verdict": self.verdict,
            "decays": self.decays,
        }


@dataclass(frozen=True)
class Verdict:
    sr: ConditionCheck
    s: ConditionCheck
    adapted: AdaptedResult
    strictly_aperiodic: AperiodicResult
    empirical_mixing: DecayCurve
    empirical_ergodic: DecayCurve
    weak_mixing_empirical: DecayCurve
    consistency: Tuple[str, ...]

    def to_dict(self) -> dict:
        return {
            "sr": self.sr.to_dict(),
            "s": self.s.to_dict(),
            "adapted": self.adapted.to_dict(),
            "strictly_aperiodic": self.strictly_aperiodic.to_dict(),
            "empirical_mixing": self.empirical_mixing.to_dict(),
            "empirical_ergodic": self.empirical_ergodic.to_dict(),
            "weak_mixing_empirical": self.weak_mixing_empirical.to_dict(),
            "consistency": list(self.consistency),
        }


# ---------------------------------------------------------------- spectral

# orbit_spectra's records: every dual orbit, zero orbit first, and the complement
_Spectra = Tuple[Tuple[OrbitSpectral, ...], OrbitSpectral]


def _nontrivial(spectra: _Spectra) -> List[Tuple[OrbitSpectral, bool]]:
    """The nonzero-orbit records, then the complement's, each paired with
    whether it is the complement."""
    per_orbit, comp = spectra
    return [(o, False) for o in per_orbit[1:]] + [(comp, True)]


def check_sr(mu: GroupMeasure, tol: float = 1e-8) -> ConditionCheck:
    """Spectral radius < 1 on every nontrivial block, tri-state."""
    require_probability(mu)
    return _sr_from_spectra(orbit_spectra(mu, tol), tol)


def _sr_from_spectra(spectra: _Spectra, tol: float) -> ConditionCheck:
    records = tuple(BlockRecord(o.representative, comp, o.spectral_radius)
                    for o, comp in _nontrivial(spectra))
    worst = max(records, key=lambda r: r.value, default=None)
    if worst is None or worst.value < 1.0 - tol:
        verdict, witness = TriState.HOLDS, worst
    elif worst.value >= 1.0 - tol + tol / GUARD_FRACTION:
        verdict, witness = TriState.FAILS, worst
    else:
        verdict, witness = TriState.INDETERMINATE, worst
    return ConditionCheck("SR", verdict, records, witness, tol)


def check_s(mu: GroupMeasure, tol: float = 1e-8) -> ConditionCheck:
    """1 not in the spectrum of any nontrivial block, by singular-value margin."""
    require_probability(mu)
    return _s_from_spectra(orbit_spectra(mu, tol), tol)


def _s_from_spectra(spectra: _Spectra, tol: float) -> ConditionCheck:
    records = tuple(BlockRecord(o.representative, comp, o.margin)
                    for o, comp in _nontrivial(spectra))
    worst = min(records, key=lambda r: r.value, default=None)
    if worst is None or worst.value > tol:
        verdict, witness = TriState.HOLDS, worst
    elif worst.value <= tol / GUARD_FRACTION:
        verdict, witness = TriState.FAILS, worst
    else:
        verdict, witness = TriState.INDETERMINATE, worst
    return ConditionCheck("S", verdict, records, witness, tol)


# -------------------------------------------------------------- structural

def _semigroup_closure(g: MotionGroup, seed: Sequence[int]) -> np.ndarray:
    """Indices of the subgroup generated by seed (finite, so the
    multiplicative closure already contains inverses)."""
    gens = np.unique(np.asarray(list(seed), dtype=np.int64))
    table = right_products(g, gens)
    member = np.zeros(g.size, dtype=bool)
    member[gens] = True
    frontier = gens
    while frontier.size:
        prods = np.unique(table[frontier])
        fresh = prods[~member[prods]]
        member[fresh] = True
        frontier = fresh
    return np.flatnonzero(member)


def adapted(mu: GroupMeasure) -> AdaptedResult:
    """Does the support generate the whole group?"""
    require_probability(mu)
    closure = _semigroup_closure(mu.group, mu.support())
    return AdaptedResult(closure.size == mu.group.size, int(closure.size))


def strictly_aperiodic_check(mu: GroupMeasure) -> AperiodicResult:
    """Is the support outside every coset of a proper normal subgroup?

    With s0 in the support, the support lies in a coset of a proper
    normal subgroup exactly when the normal closure of
    {s0^{-1} s : s in supp} is proper. Validates only that the support
    is nonempty, so it can probe non-probability weight vectors too.
    """
    g = mu.group
    supp = mu.support()
    if supp.size == 0:
        raise EmptySupport("measure has empty support")
    table = g.mult_table()
    inv = g.inv_perm()
    s0_inv = inv[supp[0]]
    diffs = table[s0_inv, supp]
    # conjugating the generating set first keeps the generated subgroup normal
    conj = table[table[:, diffs], inv[:, None]]
    closure = _semigroup_closure(g, np.unique(conj))
    return AperiodicResult(closure.size == g.size, int(closure.size))


# --------------------------------------------------------------- empirical

def _dyadic_checkpoints(n_max: int) -> List[int]:
    if n_max < 1 or n_max & (n_max - 1):
        raise ValueError(f"n_max must be a power of two, got {n_max}")
    out = [1]
    while out[-1] < n_max:
        out.append(out[-1] * 2)
    return out


def _translates(g: MotionGroup, w: np.ndarray) -> np.ndarray:
    """|G| x |G| matrix T[x, y] = w(x^{-1} y): row x is delta_x * w, and
    p * w = p @ T."""
    return w[g.mult_table()[g.inv_perm(), :]]


def _translate_gap(g: MotionGroup, w: np.ndarray) -> float:
    """max over x of tv_norm(delta_x * w - w): the mean-zero basis sweep.
    Row x of w[mult_table] is w(x .) = delta_{x^-1} * w, so its rows are
    the same translates in another order."""
    d = w[g.mult_table()]
    d -= w
    return float(np.abs(d).sum(axis=1).max())


def _decide(points: List[Tuple[int, float]], threshold: float,
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


# entries a Cesaro term may build from one chunk (about 256 KB complex):
# enough to amortise the Python loop on small groups, and stays in cache
_CHUNK_ENTRIES = 1 << 14


def _cesaro_sums(start: np.ndarray, m: np.ndarray, n_max: int, per_step: int,
                 term: Callable[[np.ndarray], np.ndarray]
                 ) -> Iterator[Tuple[int, np.ndarray]]:
    """Yield (n, sum_{k=1..n} term(start m^k)) at each dyadic n <= n_max,
    a sum the next chunk updates in place.

    term gets the powers in chunks of w steps (the largest power of two with
    w * per_step <= _CHUNK_ENTRIES; none crosses a dyadic n) and sums over
    them. A dense m walks a (rows, |G|) start and gives (w, rows, |G|)
    chunks, one matrix product per step; an (orbits, nk, nk) stack gives
    orbit-major (orbits, w * nk, nk) stacks, doubled up to w steps and then
    advanced as chunk @ m^w.
    """
    w = 1 << max(0, (_CHUNK_ENTRIES // per_step).bit_length() - 1)
    if m.ndim == 2:
        rows = np.repeat(start[None], min(w, n_max) + 1, axis=0)
        # np.dot on prebuilt (power, next power) views: on small groups the
        # per-call overhead is most of a step, and matmul's is twice as high
        steps = list(zip(rows, rows[1:]))
    powers, jump = start, m
    acc, done = None, 0
    for n in _dyadic_checkpoints(n_max):
        while done < n:
            size = min(w, n - done)
            if m.ndim == 2:
                for power, nxt in steps[:size]:
                    np.dot(power, m, out=nxt)
                chunk = rows[1:size + 1]
                rows[0] = rows[size]
            elif 0 < done < w:      # powers 1..done times m^done
                chunk = powers @ jump
                powers = np.concatenate((powers, chunk), axis=1)
                jump = jump @ jump
            else:                   # start m, then the last w powers times m^w
                chunk = powers = powers @ jump
            acc = term(chunk) if acc is None else np.add(acc, term(chunk), out=acc)
            done += size
        yield n, acc


def empirical_mixing(mu: GroupMeasure, n_max: int = 1024,
                     threshold: float = 1e-6) -> DecayCurve:
    """sup_x tv_norm(f_x * mu^n) at dyadic n via repeated squaring."""
    require_probability(mu)
    g = mu.group
    checkpoints = _dyadic_checkpoints(n_max)
    cur = mu
    points = [(1, _translate_gap(g, cur.weights))]
    for n in checkpoints[1:]:
        cur = convolve(cur, cur)
        points.append((n, _translate_gap(g, cur.weights)))
    verdict, decays = _decide(points, threshold, "MIXING", "NOT_MIXING")
    return DecayCurve(tuple(points), threshold, verdict, decays)


def empirical_ergodic(mu: GroupMeasure, n_max: int = CESARO_N_MAX,
                      threshold: float = 0.02) -> DecayCurve:
    """sup_x tv_norm(f_x * S_n) for S_n = (1/n) sum_{k=1..n} mu^k, dyadic n.

    The k = 0 term is left out: it contributes a fixed tv_norm(f_x)/n
    that says nothing about mu and would dominate every average (the
    uniform measure must come out exactly 0). The powers walk on the real
    part of mu: a probability measure is real within PROBABILITY_TOL.
    """
    require_probability(mu)
    g = mu.group
    start = np.eye(1, g.size, g.index(g.identity()))
    sums = _cesaro_sums(start, _translates(g, mu.weights.real), n_max, g.size,
                        lambda rows: rows.sum(axis=0))
    points = [(n, _translate_gap(g, acc[0] / n)) for n, acc in sums]
    verdict, decays = _decide(points, threshold, "ERGODIC", "NOT_ERGODIC")
    return DecayCurve(tuple(points), threshold, verdict, decays)


def _stacked_lambda_gaps(g: MotionGroup, reps: List[Character]) -> np.ndarray:
    """(orbits, |G|*nk, nk) stack of Lambda_alpha(x) - I over all x.

    Row k' of Lambda_alpha(a, k) holds <a, beta_{k'}> in column k^{-1} k',
    with beta_{k'} = dual_action(k', alpha) read off dual_table.
    """
    n, nk = g.abelian.modulus, g.k.order
    avecs = g.abelian.vectors()
    betas = avecs[dual_table(g)[[g.abelian.index(a.alpha) for a in reps]]]  # [r, k', :]
    phases = np.exp(2j * np.pi * (np.einsum("rkd,ad->rak", betas, avecs) % n) / n)
    onehot = np.eye(nk)[g.k.table[g.k.inverses]]       # [k, k', c]: c = k^{-1} k'
    s = phases[:, :, None, :, None] * onehot - np.eye(nk)
    return s.reshape(len(reps), g.size * nk, nk)


def empirical_weak_mixing(mu: GroupMeasure, n_max: int = CESARO_N_MAX,
                          threshold: float = 0.01,
                          test_functions: Optional[Sequence[np.ndarray]] = None,
                          n_random: int = 3, seed: int = WEAK_MIXING_SEED) -> DecayCurve:
    """Cesaro averages of |<f_x * mu^k, h>| over test functions h.

    By default h ranges over every matrix coefficient of every induced
    block plus a few seeded random bounded functions; the block part is
    evaluated exactly through matrix powers of the represented measure.
    The other functions walk on the real part of mu: a probability measure
    is real within PROBABILITY_TOL.
    """
    require_probability(mu)
    reps = [o.representative for o in dual_orbits(mu.group)]
    return _weak_mixing(mu, reps, n_max, threshold, test_functions, n_random, seed)


def _weak_mixing(mu: GroupMeasure, reps: List[Character], n_max: int = CESARO_N_MAX,
                 threshold: float = 0.01,
                 test_functions: Optional[Sequence[np.ndarray]] = None,
                 n_random: int = 3, seed: int = WEAK_MIXING_SEED) -> DecayCurve:
    """empirical_weak_mixing on a probability measure, given the dual-orbit
    representatives."""
    g = mu.group
    nk = g.k.order
    if test_functions is None:
        u = np.random.default_rng(seed).uniform(-1, 1, (n_random, 2, g.size))
        hs = u[:, 0] + 1j * u[:, 1]
        hs /= np.maximum(1.0, np.abs(hs).max(axis=1, keepdims=True))
    else:
        hs = np.asarray(test_functions, dtype=np.complex128)
        if len(hs) and hs.shape[1:] != (g.size,):
            raise ValueError(f"test functions have shape {hs.shape}, "
                             f"expected ({len(hs)}, {g.size})")

    # averages run over k = 1..n: the k = 0 term is n-independent and would
    # mask the decay (uniform mu must come out exactly 0)
    sums = []
    if test_functions is None:
        gap_stack = _stacked_lambda_gaps(g, reps)[:, None]  # (orb, 1, |G|nk, nk)
        cstack = _blocks(g, mu.weights, reps)
        sums.append(_cesaro_sums(
            np.broadcast_to(np.eye(nk), cstack.shape), cstack, n_max, gap_stack.size,
            lambda pw: np.abs(gap_stack @ pw.reshape(len(reps), -1, nk, nk)).sum(axis=1)))
    if len(hs):
        # <f_x * mu^k, h> = e_k(x) - e_k(e), e_0 = h and e_k = e_{k-1} T^T for
        # the real translate matrix T of mu: Re h and Im h walk as rows
        # through T^T, which is the translate matrix of the reversed measure
        e, nh = g.index(g.identity()), len(hs)

        def term(rows: np.ndarray) -> np.ndarray:
            gaps = rows - rows[:, :, e, None]
            return np.hypot(gaps[:, :nh], gaps[:, nh:]).sum(axis=0)

        sums.append(_cesaro_sums(np.concatenate((hs.real, hs.imag)),
                                 _translates(g, mu.weights.real[g.inv_perm()]), n_max,
                                 2 * hs.size, term))

    points = [(n, max((float(next(it)[1].max()) for it in sums), default=0.0) / n)
              for n in _dyadic_checkpoints(n_max)]
    verdict, decays = _decide(points, threshold, "WEAK_MIXING",
                              "NOT_WEAK_MIXING")
    return DecayCurve(tuple(points), threshold, verdict, decays)


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


def cross_check(mu: GroupMeasure, tol: float = 1e-8,
                mixing_n_max: int = 1024, ergodic_n_max: int = CESARO_N_MAX) -> Verdict:
    """Evaluate all six conditions and list violated implications."""
    require_probability(mu)
    spectra = orbit_spectra(mu, tol)
    sr = _sr_from_spectra(spectra, tol)
    s = _s_from_spectra(spectra, tol)
    ad = adapted(mu)
    sa = strictly_aperiodic_check(mu)
    mix = empirical_mixing(mu, n_max=mixing_n_max)
    erg = empirical_ergodic(mu, n_max=ergodic_n_max)
    wm = _weak_mixing(mu, [o.representative for o in spectra[0]], n_max=ergodic_n_max)
    violations = _grid_violations(sr, s, ad, sa, mix, erg, wm)
    return Verdict(sr, s, ad, sa, mix, erg, wm, tuple(violations))
