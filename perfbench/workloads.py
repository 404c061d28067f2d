"""The four benchmark workloads: seeded inputs, ops and output checks.

Each ``setup_*(seed, workdir)`` generates the workload's inputs from the
seed, builds the groups and measures through the public API, and returns
one pass of ops. Ops call the program through module attributes looked up
at call time, so the traced run sees the calls it wraps. Caches the
program fills lazily (``mult_table``, ``inv_perm``) are left cold: every
set-up builds fresh groups.
"""
from __future__ import annotations

import functools
import json
import math
from pathlib import Path
from typing import Dict, List, Tuple

import numpy as np

import motionwalk as mw
import motionwalk.cli

from harness import FAILED, OK, WRONG, Op

CENSUS_PATH = Path(__file__).resolve().parent / "data" / "suite200_census.json"
INCONCLUSIVE = ("INDETERMINATE", "INCONCLUSIVE")

SPECTRAL_N = 24            # rotation_group(24): |G| = 2304
SPECTRAL_DENSE = 5           # one more than sparse, so the median op is a dense one
SPECTRAL_SPARSE = 4
SUPPORT_BUDGET = 1 << 16   # products a sparse draw may take to show its support grows
RADIUS_TOL = 1e-9

WALK_N = 16                # rotation_group(16): |G| = 1024
WALK_MEASURES = 3
WALK_STEPS = 128
WALK_TRIALS = 100_000
TV_DELTA = 1e-12           # failure probability allowed per checked row

LATTICE_LADDER = tuple(2 ** j for j in range(7, 12))   # 128 .. 2048; the median op is n = 512
DEFECT_RTOL = 1e-9


def _rng(seed: int, salt: int) -> np.random.Generator:
    return np.random.default_rng([seed, salt])


# ---------------------------------------------------------------- suite200

def verdict_summary(v) -> Dict[str, object]:
    """The verdicts of a cross_check result that the census freezes."""
    return {
        "sr": v.sr.verdict.value,
        "s": v.s.verdict.value,
        "adapted": v.adapted.adapted,
        "strictly_aperiodic": v.strictly_aperiodic.strictly_aperiodic,
        "mixing": v.empirical_mixing.verdict,
        "ergodic": v.empirical_ergodic.verdict,
        "weak_mixing": v.weak_mixing_empirical.verdict,
    }


@functools.lru_cache(maxsize=1)
def suite_census() -> Dict[str, Dict[str, object]]:
    return json.loads(CENSUS_PATH.read_text())["cases"]


def check_verdict(frozen: Dict[str, object], v) -> Tuple[str, str]:
    """No consistency violation, and every verdict that was conclusive when
    the census was frozen comes out the same."""
    if v.consistency:
        return WRONG, "consistency violations: " + "; ".join(v.consistency)
    got = verdict_summary(v)
    for key, want in frozen.items():
        if want in INCONCLUSIVE:
            continue
        if got[key] != want:
            return WRONG, f"{key} is {got[key]}, frozen census says {want}"
    return OK, ""


def _check_case(name: str, v) -> Tuple[str, str]:
    return check_verdict(suite_census()[name], v)


def setup_suite200(seed: int, workdir: Path) -> List[Op]:
    """cross_check on each of the 200 acceptance cases; the seed shuffles
    the order only."""
    cases = mw.acceptance_suite()
    order = _rng(seed, 200).permutation(len(cases))
    return [Op(cases[i].name,
               functools.partial(lambda mu: mw.cross_check(mu), cases[i].measure),
               functools.partial(_check_case, cases[i].name),
               cases[i].group)
            for i in order]


# ------------------------------------------------------------ spectral2304

def block_radius_oracle(g, weights: np.ndarray) -> float:
    """max over every character alpha of the spectral radius of
    Lambda_alpha(mu), built from one FFT over the translation axes.

    Entry (k', k'') of Lambda_alpha(mu) is the A-Fourier transform of
    mu(., k' k''^{-1}) at alpha . M_{k'^{-1}}. This shares no code with the
    program's block construction. Its maximum equals the block side of the
    radius formula: the program's blocks are those of conj(mu), whose
    spectrum is the conjugate of mu's.
    """
    n, d, nk = g.abelian.modulus, g.abelian.rank, g.k.order
    na = n ** d
    f = np.fft.ifftn(np.asarray(weights).reshape((n,) * d + (nk,)),
                     axes=tuple(range(d))).reshape(na, nk) * na
    chars = np.indices((n,) * d).reshape(d, na).T        # first coordinate most significant
    place = n ** np.arange(d - 1, -1, -1)
    inv = g.k.inverses
    beta = np.stack([((chars @ g.k.action[inv[kp]]) % n) @ place
                     for kp in range(nk)], axis=1)        # (alpha, k') -> character index
    kk = g.k.table[:, inv]                                # (k', k'') -> k' k''^{-1}
    blocks = f[beta[:, :, None], kk[None, :, :]]
    return float(np.abs(np.linalg.eigvals(blocks)).max())


def _products(g, left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Element index of x y for every x in ``left`` and y in ``right``, as a
    (len(left), len(right)) array, from the group's action and K table
    only, so that no lazy cache of the program is filled."""
    nk, n, d = g.k.order, g.abelian.modulus, g.abelian.rank
    place = n ** np.arange(d - 1, -1, -1)
    a_l, k_l = np.divmod(left, nk)
    a_r, k_r = np.divmod(right, nk)
    vec_l = (a_l[:, None] // place) % n
    vec_r = (a_r[:, None] // place) % n
    moved = g.k.action @ vec_r.T            # (k, p, j): coordinate p of M_k b_j
    # (a, k)(b, m) = (a + M_k b, k m), one coordinate at a time
    a_idx = sum(((vec_l[:, p, None] + moved[k_l, p, :]) % n) * place[p] for p in range(d))
    return a_idx * nk + g.k.table[k_l[:, None], k_r[None, :]]


def _products_collide(g, idx: np.ndarray) -> bool:
    """Do two different pairs of atoms have the same product? Only such a
    collision can cancel mass in the first convolution square."""
    key = _products(g, idx, idx)
    iu, ju = np.triu_indices(len(idx))
    first, second = key[iu, ju], key[ju, iu]
    keys = np.concatenate([first, second[second != first]])   # each pair's distinct products
    return np.unique(keys).size < keys.size


def _support_spreads(g, idx: np.ndarray) -> bool:
    """Does the support of mu^(2^k) visibly grow past a quarter of the
    group? It is S, S S, (S S)(S S), ...; it never shrinks, and once a
    squaring leaves its size unchanged it is a coset of a subgroup and
    stays that size. Measures whose support stalls at a quarter or less
    keep every squaring on the program's cheap sparse path, so their ops
    would take a fraction of the others' time. A draw counts only if the
    growth shows within SUPPORT_BUDGET products, so that a stall is
    rejected without computing all of it and every seed's set-up costs
    about the same."""
    support = np.unique(idx)
    spent = 0
    while 4 * support.size <= g.size:
        grown = np.zeros(g.size, dtype=bool)
        for start in range(0, support.size, 16):      # S S row block by row block
            block = support[start:start + 16]
            grown[_products(g, block, support).ravel()] = True
            spent += block.size * support.size
            if 4 * np.count_nonzero(grown) > g.size:
                return True
            if spent > SUPPORT_BUDGET:
                return False
        if np.count_nonzero(grown) == support.size:
            return False
        support = np.flatnonzero(grown)
    return True


def sparse_complex_weights(g, rng: np.random.Generator) -> np.ndarray:
    """2-4 atoms with complex Gaussian weights, unit total variation, whose
    pairwise products do not collide: the class on which the Gelfand
    estimate stops after one squaring (ROADMAP open item 1). The support of
    their powers must grow past a quarter of the group, so that every
    sparse op costs about the same whatever the seed."""
    while True:
        idx = rng.choice(g.size, size=int(rng.integers(2, 5)), replace=False)
        if not _products_collide(g, idx) and _support_spreads(g, idx):
            break
    w = np.zeros(g.size, dtype=np.complex128)
    w[idx] = rng.normal(size=idx.size) + 1j * rng.normal(size=idx.size)
    return w / np.abs(w).sum()


def dense_complex_weights(g, rng: np.random.Generator) -> np.ndarray:
    w = rng.normal(size=g.size) + 1j * rng.normal(size=g.size)
    return w / np.abs(w).sum()


class SrfCheck:
    """Checks a verify_srf report: the block-side radius against the FFT
    oracle, then the report's own passed flag."""

    def __init__(self, mu) -> None:
        self.mu = mu
        self._radius = None

    def radius(self) -> float:
        if self._radius is None:
            self._radius = block_radius_oracle(self.mu.group, self.mu.weights)
        return self._radius

    def __call__(self, report) -> Tuple[str, str]:
        want = self.radius()
        if not abs(report.formula_radius - want) <= RADIUS_TOL:
            return WRONG, f"block radius {report.formula_radius!r}, oracle {want!r}"
        if not report.passed:
            return FAILED, (f"formula check failed: Gelfand estimate "
                            f"{report.gelfand_radius_estimate!r}, block radius {want!r}")
        return OK, ""


@functools.lru_cache(maxsize=None)
def sparse_draws(seed: int) -> Tuple[np.ndarray, ...]:
    """The sparse measures' weights for a seed, searched once per process.
    The search is the benchmark's own code and takes 5-40 ms depending on
    the seed; cached, it stays out of every set-up but the first, so that
    the median set-up time shows the program's work and not the seed."""
    g = mw.rotation_group(SPECTRAL_N)
    rng = _rng(seed, 2305)
    return tuple(sparse_complex_weights(g, rng) for _ in range(SPECTRAL_SPARSE))


def setup_spectral2304(seed: int, workdir: Path) -> List[Op]:
    """verify_srf on 5 dense and 4 sparse complex measures on
    rotation_group(24), in a seeded order."""
    g = mw.rotation_group(SPECTRAL_N)
    rng = _rng(seed, 2304)
    weights = [("dense", dense_complex_weights(g, rng)) for _ in range(SPECTRAL_DENSE)]
    weights += [("sparse", w) for w in sparse_draws(seed)]
    ops = []
    for i in rng.permutation(len(weights)):
        kind, w = weights[i]
        mu = mw.from_weights(g, w)
        ops.append(Op(f"{kind}{i}", functools.partial(lambda m: mw.verify_srf(m), mu),
                      SrfCheck(mu), g))
    return ops


# ---------------------------------------------------------------- walk_sim

def tv_bound(size: int, trials: int, delta: float = TV_DELTA) -> float:
    """Bound on |TV(empirical, U) - TV(exact, U)| that holds with
    probability at least 1 - delta: the mean of TV(empirical, exact) is at
    most sqrt(size / trials) / 2, and TV moves by at most 1/trials per
    trial (McDiarmid)."""
    return 0.5 * math.sqrt(size / trials) + math.sqrt(math.log(1.0 / delta) / (2.0 * trials))


def check_walk_rows(rows: List[dict], bound: float) -> Tuple[str, str]:
    if not rows:
        return WRONG, "no rows"
    for row in rows:
        gap = abs(float(row["tv_empirical"]) - float(row["tv_exact"]))
        if not gap <= bound:
            return WRONG, f"n={row['n']}: |tv_empirical - tv_exact| = {gap:.4g} > {bound:.4g}"
    return OK, ""


class WalkCheck:
    def __init__(self, out_path: Path, size: int) -> None:
        self.out_path = out_path
        self.bound = tv_bound(size, WALK_TRIALS)

    def __call__(self, code: int) -> Tuple[str, str]:
        if code != 0:
            return FAILED, f"exit code {code}"
        try:
            rows = json.loads(self.out_path.read_text())["rows"]
        except (OSError, ValueError, KeyError, TypeError) as exc:
            return WRONG, f"unreadable output {self.out_path.name}: {exc}"
        return check_walk_rows(rows, self.bound)


def lazy_adapted_weights(g, rng: np.random.Generator) -> np.ndarray:
    """Half the mass on the identity; the rest on the generators
    (e1, 0) and (0, quarter turn) plus one or two random atoms, so the
    support generates the group."""
    w = np.zeros(g.size)
    e1 = (1,) + (0,) * (g.abelian.rank - 1)
    zero = (0,) * g.abelian.rank
    atoms = [g.index(mw.GElem(e1, 0)), g.index(mw.GElem(zero, 1))]
    atoms += rng.choice(g.size, size=int(rng.integers(1, 3)), replace=False).tolist()
    raw = rng.random(len(atoms)) + 0.1
    np.add.at(w, atoms, 0.5 * raw / raw.sum())
    w[g.index(g.identity())] += 0.5
    return w


def setup_walk_sim(seed: int, workdir: Path) -> List[Op]:
    """In-process ``motionwalk simulate`` on seeded lazy adapted measures
    on rotation_group(16), from group and measure files written here."""
    g = mw.rotation_group(WALK_N)
    rng = _rng(seed, 1024)
    group_path = workdir / "walk-group.json"
    group_path.write_text(json.dumps(mw.cli.group_to_data(g)))
    ops = []
    for i in range(WALK_MEASURES):
        mu = mw.from_weights(g, lazy_adapted_weights(g, rng))
        measure_path = workdir / f"walk-measure{i}.json"
        measure_path.write_text(json.dumps(mw.cli.measure_to_data(mu)))
        out_path = workdir / f"walk-out{i}.json"
        argv = ["simulate", "--group", str(group_path), "--measure", str(measure_path),
                "--steps", str(WALK_STEPS), "--trials", str(WALK_TRIALS),
                "--seed", str(int(rng.integers(2 ** 31))), "--out", str(out_path)]
        ops.append(Op(f"mu{i}", functools.partial(lambda a: mw.cli.main(a), argv),
                      WalkCheck(out_path, g.size), g))
    return ops


# ---------------------------------------------------------- lattice_defect

def check_defect(n: int, r) -> Tuple[str, str]:
    if r.n != n:
        return WRONG, f"result for n={r.n}, asked for n={n}"
    if not abs(r.direct - r.closed_form) <= DEFECT_RTOL * abs(r.closed_form):
        return WRONG, f"n={n}: direct {r.direct!r} vs closed form {r.closed_form!r}"
    return OK, ""


def setup_lattice_defect(seed: int, workdir: Path) -> List[Op]:
    """defect_norm at each n of the dyadic ladder 128..2048, in a seeded
    order."""
    t, _ = mw.eigen_parameter()
    ladder = [int(n) for n in _rng(seed, 5).permutation(LATTICE_LADDER)]
    return [Op(f"n{n}", functools.partial(lambda m: mw.defect_norm(t, m), n),
               functools.partial(check_defect, n))
            for n in ladder]


SETUPS = {
    "suite200": setup_suite200,
    "spectral2304": setup_spectral2304,
    "walk_sim": setup_walk_sim,
    "lattice_defect": setup_lattice_defect,
}

# The reference kernels (reference.py) whose speed each workload's ops
# follow: the classifier on small groups and the exact arithmetic are
# interpreter-bound, the spectral ops split their time between per-orbit
# loops and the dense gather, and the sampler's goes to drawing uniforms
# and searching the CDF.
REFERENCE = {
    "suite200": ("interp",),
    "spectral2304": ("interp", "gather"),
    "walk_sim": ("search",),
    "lattice_defect": ("interp",),
}
