"""Independent routes the tests compare the package against, and the
test-only helpers.

Elementwise induced-representation matrices, K-side reconstructions,
central measures, the cofactor determinant, the per-element group-axiom
loops, the breadth-first subgroup closures, the exact translate-gap
sweep, the per-step walk and Cesaro loops, the convolution-squaring
Gelfand chain and power chain, and the lattice walk's per-entry integer
phase route: each builds its answer a different way from the code under
test, one element or one step at a time. The list-based Gram loop of the
weak-mixing curve is the classifier's earlier route, kept to show that
the streamed one keeps its bits. The lattice walk's phase exponent and
aperiodicity certificate, and the sampled measures of the radius-formula
sweeps, are read only by the tests.
"""
from __future__ import annotations

import functools
import itertools
import math
from typing import Dict, Iterable, List, Sequence, Set, Tuple

import numpy as np

from motionwalk.families import (
    negation_group,
    rotation_group,
    scaling_group,
    swap_group,
    trivial_group,
)
from motionwalk.errors import NotAGroupTable, NotAHomomorphism, NotInvertible
from motionwalk.groups import Character, GElem, MotionGroup, dual_action, dual_orbits, products
from motionwalk.measures import GroupMeasure, convolve, delta, from_weights, tv_norm
from motionwalk.reps import _blocks, _dyadic_powers, compress_to_complement, fourier
from motionwalk.rosenblatt import (
    QSqrt5,
    ZElem,
    gamma_power,
    rosenblatt_measure,
    z_identity,
    z_inverse,
    z_multiply,
)
from motionwalk.simulate import _on_simplex


class ContainsZeroCharacter(ValueError):
    """Central-measure support set must avoid the trivial character."""


class NotOrbitClosed(ValueError):
    """Central-measure support set must be a union of dual orbits."""


class BudgetExceeded(RuntimeError):
    """Bounded search exhausted its budget without reaching a conclusion."""


# ------------------------------------------------------ induced representations

def lambda_elem(g: MotionGroup, alpha: Character, x: GElem) -> np.ndarray:
    """Matrix of the induced representation at the group element x.

    Phases come from dual_action one row at a time, so this stays an
    elementwise oracle independent of the FFT builder reps._blocks.
    """
    nk = g.k.order
    n = g.abelian.modulus
    duals = np.array([dual_action(g, kp, alpha).alpha for kp in range(nk)],
                     dtype=np.int64)                      # row k': phi_{k'}(alpha)
    exps = (duals @ np.asarray(x.a, dtype=np.int64)) % n
    phases = np.exp(2j * np.pi * exps / n)
    cols = g.k.table[g.k.inv(x.k), :]                     # k'' = k^{-1} k'
    m = np.zeros((nk, nk), dtype=np.complex128)
    m[np.arange(nk), cols] = phases
    return m


def left_regular_k(g: MotionGroup, k: int) -> np.ndarray:
    """Permutation matrix of [L_K(k) phi](k') = phi(k^{-1} k')."""
    nk = g.k.order
    m = np.zeros((nk, nk))
    m[np.arange(nk), g.k.table[g.k.inv(k), :]] = 1.0
    return m


def right_regular_k(g: MotionGroup, k: int) -> np.ndarray:
    """Permutation matrix of [R_K(k) phi](k') = phi(k' k)."""
    nk = g.k.order
    m = np.zeros((nk, nk))
    m[np.arange(nk), g.k.table[:, k]] = 1.0
    return m


def lambda0_complement_block(mu: GroupMeasure) -> np.ndarray:
    """mu_hat at the trivial character, compressed to the complement of the
    constant functions."""
    g = mu.group
    return compress_to_complement(g, fourier(mu, Character((0,) * g.abelian.rank)))


def orbit_conjugation_check(g: MotionGroup, alpha: Character, kprime: int) -> float:
    """Max deviation of Lambda_{phi_{k'}(alpha)}(x) from
    R_K(k') Lambda_alpha(x) R_K(k')^{-1} over a spanning set of x."""
    moved = dual_action(g, kprime, alpha)
    r = right_regular_k(g, kprime)
    rinv = right_regular_k(g, g.k.inv(kprime))
    worst = 0.0
    for idx in range(g.size):
        x = g.element(idx)
        lhs = lambda_elem(g, moved, x)
        rhs = r @ lambda_elem(g, alpha, x) @ rinv
        worst = max(worst, float(np.abs(lhs - rhs).max()))
    return worst


def pik_consistency(mu: GroupMeasure) -> float:
    """Deviation of mu_hat(Lambda_0) from the K-pushforward reconstruction
    sum_k pi_K(mu)(k) L_K(k^{-1})."""
    g = mu.group
    lhs = fourier(mu, Character((0,) * g.abelian.rank))
    kw = push_k(mu)
    rhs = np.zeros_like(lhs)
    for k in range(g.k.order):
        rhs += kw[k] * left_regular_k(g, g.k.inv(k))
    return float(np.abs(lhs - rhs).max())


# ------------------------------------------------------- integer determinants

def cofactor_det(m: Sequence[Sequence[int]]) -> int:
    """Exact integer determinant by cofactor expansion along the first
    row: d! terms."""
    d = len(m)
    if d == 1:
        return int(m[0][0])
    total = 0
    for j in range(d):
        minor = [[int(row[c]) for c in range(d) if c != j] for row in m[1:]]
        sign = -1 if j % 2 else 1
        total += sign * int(m[0][j]) * cofactor_det(minor)
    return total


# ------------------------------------------------------------- group axioms

def group_axiom_loops(n: int, d: int, table, action_matrices) -> np.ndarray:
    """The K inverses of build_motion_group's data, by its earlier per-element
    loops: the same checks in the same order, each raising the same error
    class and message at the first failing index, with the determinant by
    cofactor expansion."""
    table = np.asarray(table, dtype=np.int64)
    if table.ndim != 2 or table.shape[0] != table.shape[1]:
        raise NotAGroupTable(f"table must be square, got shape {table.shape}")
    order = table.shape[0]
    if table.min() < 0 or table.max() >= order:
        raise NotAGroupTable("table entries must be indices in [0, order)")
    idx = np.arange(order)
    if not (np.array_equal(table[0], idx) and np.array_equal(table[:, 0], idx)):
        raise NotAGroupTable("index 0 must be the identity")
    for i in range(order):
        if len(set(table[i].tolist())) != order or len(set(table[:, i].tolist())) != order:
            raise NotAGroupTable(f"row/column {i} is not a permutation")
    inverses = np.full(order, -1, dtype=np.int64)
    for i in range(order):
        js = np.where(table[i] == 0)[0]
        if len(js) != 1 or table[js[0], i] != 0:
            raise NotAGroupTable(f"element {i} has no two-sided inverse")
        inverses[i] = js[0]
    for i, j, k in itertools.product(range(order), repeat=3):
        if table[table[i, j], k] != table[i, table[j, k]]:
            raise NotAGroupTable(f"associativity fails at triple {(i, j, k)}")
    action = np.asarray(action_matrices, dtype=np.int64)
    if action.shape != (order, d, d):
        raise NotAHomomorphism(
            f"need one {d}x{d} matrix per K element, got shape {action.shape}")
    action = action % n
    if not np.array_equal(action[0], np.eye(d, dtype=np.int64) % n):
        raise NotAHomomorphism("action of the identity must be the identity matrix")
    for i in range(order):
        det = cofactor_det(action[i].tolist()) % n
        if math.gcd(det, n) != 1:
            raise NotInvertible(f"action matrix {i} has det {det} not coprime to {n}")
    for i in range(order):
        for j in range(order):
            if not np.array_equal((action[i] @ action[j]) % n, action[table[i, j]]):
                raise NotAHomomorphism(f"action[{i}]*action[{j}] != action[{i}*{j}] mod {n}")
    return inverses


# --------------------------------------------------------- subgroup closures

def semigroup_closure(g: MotionGroup, seed: Sequence[int]) -> np.ndarray:
    """Indices of the subgroup generated by seed (finite, so the
    multiplicative closure already contains inverses): breadth first, every
    frontier times every generator."""
    gens = np.unique(np.asarray(list(seed), dtype=np.int64))
    member = np.zeros(g.size, dtype=bool)
    member[gens] = True
    frontier = gens
    while frontier.size:
        prods = np.unique(products(g, frontier[:, None], gens))
        fresh = prods[~member[prods]]
        member[fresh] = True
        frontier = fresh
    return np.flatnonzero(member)


def structure(mu: GroupMeasure) -> Tuple[bool, int, bool, int]:
    """(adapted, subgroup size, strictly aperiodic, normal closure size)
    of the support: the subgroup the support generates, and the one
    generated by every conjugate x d x^-1, x in G, of every difference
    d = s0^-1 s, which is the normal closure of the differences."""
    g = mu.group
    supp = mu.support()
    sub = semigroup_closure(g, supp)
    inv = g.inv_perm()
    diffs = products(g, inv[supp[0]], supp)
    conj = products(g, products(g, np.arange(g.size)[:, None], diffs), inv[:, None])
    normal = semigroup_closure(g, np.unique(conj))
    return sub.size == g.size, int(sub.size), normal.size == g.size, int(normal.size)


# ------------------------------------------------------------------ measures

def push_k(mu: GroupMeasure) -> np.ndarray:
    """Pushforward to K as a (|K|,) weight array: pi_K(mu)(k) = sum_a mu(a, k)."""
    g = mu.group
    return mu.weights.reshape(g.abelian.size, g.k.order).sum(axis=0)


def _orbit_closure_check(g: MotionGroup, s: Set[Character]) -> None:
    for ch in s:
        if ch.is_trivial():
            raise ContainsZeroCharacter("support set must not contain the zero character")
    for ch in s:
        for k in range(g.k.order):
            if dual_action(g, k, ch) not in s:
                raise NotOrbitClosed(f"{ch} leaves the set under the action of k={k}")


def central_measure(g: MotionGroup, s: Iterable[Character]) -> GroupMeasure:
    """Central measure nu = (h dlambda_A) x delta_{identity of K}, where h is
    the inverse A-Fourier transform of the indicator of s.

    nu commutes with every measure on G, and its Fourier block at alpha is
    the identity when alpha lies in s and zero otherwise.  s must be a union
    of nontrivial dual orbits.
    """
    sset = set(s)
    _orbit_closure_check(g, sset)
    ab = g.abelian
    n = ab.modulus
    w = np.zeros(g.size, dtype=np.complex128)
    if sset:
        alphas = np.array([ch.alpha for ch in sorted(sset, key=lambda c: c.alpha)])
        for a_idx in range(ab.size):
            avec = np.asarray(ab.vector(a_idx), dtype=np.int64)
            exps = (alphas @ avec) % n
            h = np.exp(2j * np.pi * exps / n).sum() / ab.size
            w[a_idx * g.k.order + 0] = h
    return GroupMeasure(g, w)


def mean_zero_basis(g: MotionGroup) -> List[GroupMeasure]:
    """Basis f_x = delta_x - delta_e of the mean-zero functions, x != e."""
    e = g.identity()
    de = delta(g, e)
    out = []
    for idx in range(g.size):
        x = g.element(idx)
        if x == e:
            continue
        out.append(delta(g, x) - de)
    return out


# ----------------------------------------- translate gaps and per-step loops

def translate_gaps(g: MotionGroup, rows: np.ndarray) -> np.ndarray:
    """sup_x ||delta_x * w - w||_1 for each row w of rows: the paper's sup
    over the mean-zero basis f_x = delta_x - delta_e, exactly, which the
    classifier's d(w) = ||w - m u||_1 brackets as d <= sup <= 2d. Row x of
    w[products(g, x, y)] is w(x .) = delta_{x^-1} * w, the same translates
    in another order."""
    xs = np.arange(g.size)
    table = products(g, xs[:, None], xs)
    return np.array([np.abs(w[table] - w).sum(axis=1).max() for w in rows])


def per_step_points(mu: GroupMeasure, n_max: int) -> Dict[str, Tuple[list, list]]:
    """The per-step walk p_k = p_{k-1} * mu through the dense matrix of
    right convolution by mu, k = 1..n_max. At each dyadic n, for mu^n
    ("mixing") and for the Cesaro average (1/n) sum_{k=1..n} mu^k
    ("ergodic"): the points of the distance d to the row's mass times
    Haar, and the points of the exact translate gap."""
    g = mu.group
    checkpoints = {1 << j for j in range(n_max.bit_length())}
    m = mu.weights[products(g, g.inv_perm()[:, None], np.arange(g.size))]
    p = np.zeros(g.size, dtype=np.complex128)
    p[g.index(g.identity())] = 1.0
    acc = np.zeros_like(p)
    ns, rows = [], {"mixing": [], "ergodic": []}
    for count in range(1, n_max + 1):
        p = p @ m
        acc += p
        if count in checkpoints:
            ns.append(count)
            rows["mixing"].append(p.copy())
            rows["ergodic"].append(acc / count)
    out = {}
    for curve, ws in rows.items():
        ws = np.array(ws)
        dists = np.abs(ws - ws.sum(axis=1, keepdims=True) / g.size).sum(axis=1)
        out[curve] = (list(zip(ns, dists.tolist())), list(zip(ns, translate_gaps(g, ws).tolist())))
    return out


def per_step_weak_mixing(mu, n_max):
    """The per-step mean-square loop: the points max over every x, k', c and
    orbit of (1/n) sum_{j=1..n} |[(Lambda_alpha(x) - I) P^j]_{k',c}|^2, and
    the root of the same max over the last window j in (n_max/2, n_max],
    with P = sum_x mu(x) Lambda_alpha(x) and every matrix from lambda_elem."""
    g = mu.group
    checkpoints = {1 << j for j in range(n_max.bit_length())}
    eye = np.eye(g.k.order)
    lams = np.stack([np.stack([lambda_elem(g, o.representative, x) for x in g.elements()])
                     for o in dual_orbits(g)])                # (orbit, x, k', c)
    p = np.einsum("x,rxij->rij", mu.weights, lams)
    gaps = lams - eye
    power = np.broadcast_to(eye, p.shape)
    acc = np.zeros(gaps.shape)
    window = np.zeros(gaps.shape)
    points = []
    for count in range(1, n_max + 1):
        power = power @ p
        term = np.abs(gaps @ power[:, None]) ** 2
        acc += term
        if count > n_max // 2:
            window += term
        if count in checkpoints:
            points.append((count, float(acc.max()) / count))
    return points, float(np.sqrt(window.max() / (n_max - n_max // 2)))


def gram_list_weak_mixing(mu: GroupMeasure, n_max: int) -> Tuple[tuple, float]:
    """The weak-mixing points and the last window's root mean square as
    classify computed them with every Gram sum held: the list
    G_1, G_2, G_4, ..., G_n_max from G_2n = G_n + P^n G_n (P^n)^*, then
    the closed-form max over x of each, one out-of-place array per step
    of the chain. The classifier streams the sums and runs that chain in
    place; both must keep every bit."""
    g = mu.group
    p = _blocks(g, mu.weights.real)
    grams = [np.einsum("ric,rlc->rcil", p, p.conj())]
    for pn in list(_dyadic_powers(p, n_max))[:-1]:
        grams.append(grams[-1] + pn[:, None] @ grams[-1] @ pn[:, None].conj().swapaxes(-1, -2))

    def row_max(gram):
        diag = np.einsum("rcii->rci", gram).real
        step = 2.0 * np.pi / g._phase_orders[:, None, None, :]
        delta = step / 2 - np.abs((np.angle(gram) + np.pi) % step - step / 2)
        rows = diag[..., :, None] + diag[..., None, :] + 2.0 * np.abs(gram) * np.cos(delta)
        return rows.max(axis=2)

    points = tuple((1 << j, float(row_max(gram).max()) / (1 << j))
                   for j, gram in enumerate(grams))
    last = grams[-2] if len(grams) > 1 else 0
    window = max(float(row_max(grams[-1] - last).max()), 0.0) / (n_max - n_max // 2)
    return points, float(np.sqrt(window))


# ------------------------------------------------------------ Gelfand chain

def convolve_gelfand_sequence(mu: GroupMeasure, kmax: int) -> List[float]:
    """tv_norm(mu^(2^k))^(1/2^k) for k = 0..kmax by a chain of convolve
    squarings in the weight domain, each renormalized to unit TV norm with
    the scale kept in log space."""
    t0 = tv_norm(mu)
    if t0 == 0.0:
        return [0.0] * (kmax + 1)
    log_est = math.log(t0)
    nu = (1.0 / t0) * mu
    out = [t0]
    for k in range(1, kmax + 1):
        nu2 = convolve(nu, nu)
        c = tv_norm(nu2)
        if c == 0.0:
            return out + [0.0] * (kmax + 1 - k)
        log_est += math.log(c) / (1 << k)
        out.append(math.exp(log_est))
        nu = (1.0 / c) * nu2
    return out


def convolve_powers(mu: GroupMeasure, ns: Sequence[int]) -> List[GroupMeasure]:
    """mu^n for each n of ns by a chain of convolve calls: squares
    mu, mu^2, mu^4, ... and, per n, the product of the squares at its set
    bits, lowest first, each convolution put back on the simplex. It
    multiplies in the weights' A-Fourier transform and never reads the
    block stack, so it checks simulate.exact_powers by another route."""
    g = mu.group
    squares = [mu]
    while 2 ** len(squares) <= max(ns):
        squares.append(_on_simplex(g, convolve(squares[-1], squares[-1]).weights))
    powers = []
    for n in ns:
        result = None
        for bit, square in enumerate(squares):
            if n >> bit & 1:
                result = square if result is None \
                    else _on_simplex(g, convolve(result, square).weights)
        powers.append(delta(g, g.identity()) if result is None else result)
    return powers


# ------------------------------------------------------ radius-formula sweeps

def random_complex_measure(g: MotionGroup, rng: np.random.Generator) -> GroupMeasure:
    """Complex measure with independent Gaussian parts, scaled to unit
    total variation so absolute tolerances mean the same thing on every
    draw."""
    w = rng.normal(size=g.size) + 1j * rng.normal(size=g.size)
    return from_weights(g, w / np.abs(w).sum())


def spectral_sample_groups() -> Dict[str, MotionGroup]:
    """Five groups of order <= 64 for radius-formula sweeps."""
    return {
        "t4": trivial_group(4),
        "neg5": negation_group(5),
        "sc7_2_3": scaling_group(7, 2, 3),
        "swap3": swap_group(3),
        "rot4": rotation_group(4),
    }


# ------------------------------------------------------------ lattice walk

def phase_exponent(t: Sequence[QSqrt5], m: int, v: Tuple[int, int]) -> QSqrt5:
    """t * Gamma^{-m} * v' as an exact scalar."""
    g = gamma_power(-m)
    u0 = g[0][0] * v[0] + g[0][1] * v[1]
    u1 = g[1][0] * v[0] + g[1][1] * v[1]
    return t[0].scale(u0) + t[1].scale(u1)


@functools.lru_cache(maxsize=None)
def _sqrt5_scaled(p: int) -> int:
    # floor(sqrt5 * 2^p), within 1 of sqrt5 * 2^p
    return math.isqrt(5 << (2 * p))


def integer_fractional_parts(t: Sequence[QSqrt5], lo: int, hi: int,
                             vs: Sequence[Tuple[int, int]]) -> np.ndarray:
    """(hi - lo, len(vs)) table of t Gamma^{-m} v' mod 1, entry by entry:
    each exponent is an integer pair (X, Y) over the common denominator d
    of t, meaning (X + Y sqrt5)/d, from its own gamma_power(-m), and is
    reduced mod 1 against floor(sqrt5 * 2^p) with p at least 128 bits past
    the size of Y/d in lowest terms, so the cut root moves it by less than
    2^-127."""
    coeffs = [c for q in t for c in (q.x, q.y)]
    d = math.lcm(*(c.denominator for c in coeffs))
    a0, b0, a1, b1 = (int(c * d) for c in coeffs)
    out = np.empty((hi - lo, len(vs)))
    for i in range(hi - lo):
        g = gamma_power(-(lo + i))
        for j, v in enumerate(vs):
            u0 = g[0][0] * v[0] + g[0][1] * v[1]
            u1 = g[1][0] * v[0] + g[1][1] * v[1]
            x, y = a0 * u0 + a1 * u1, b0 * u0 + b1 * u1
            r = math.gcd(y, d)
            p = max((y // r).bit_length() - (d // r).bit_length(), 0) + 128
            p += -p % 256  # quantize so the cached root is reused
            den = d << p
            out[i, j] = ((x << p) + y * _sqrt5_scaled(p)) % den / den
    return out


def _ball(gens: Iterable[ZElem], radius: int) -> List[ZElem]:
    seen = {z_identity()}
    frontier = [z_identity()]
    for _ in range(radius):
        nxt = []
        for w in frontier:
            for s in gens:
                e = z_multiply(w, s)
                if e not in seen:
                    seen.add(e)
                    nxt.append(e)
        frontier = nxt
    return list(seen)


def _bfs_reaches(gens: List[ZElem], targets: List[ZElem], max_len: int,
                 max_states: int) -> bool:
    todo = set(targets)
    todo.discard(z_identity())
    seen = {z_identity()}
    frontier = [z_identity()]
    for _ in range(max_len):
        if not todo:
            return True
        nxt = []
        for w in frontier:
            for s in gens:
                e = z_multiply(w, s)
                if e in seen:
                    continue
                seen.add(e)
                nxt.append(e)
                todo.discard(e)
                if len(seen) > max_states:
                    raise BudgetExceeded(
                        f"state budget {max_states} exhausted with {len(todo)} targets left")
        frontier = nxt
    if todo:
        raise BudgetExceeded(
            f"word length {max_len} exhausted with {len(todo)} targets left")
    return True


def aperiodicity_witness(max_word_length: int = 12, max_states: int = 1_000_000) -> bool:
    """Bounded certificate search. True when the three standard
    generators (1,0,0), (0,1,0), (0,0,1) are reached twice over: once by
    words in the support and its inverses (the walk is adapted), and once
    by words in the difference set s0^{-1} s and its radius-1 conjugates
    (the support sits in no coset of a proper normal subgroup). Raises
    BudgetExceeded when the budget runs out; a failed search refutes
    nothing."""
    if max_word_length < 1:
        raise ValueError(f"need max_word_length >= 1, got {max_word_length}")
    atoms = [x for x, _ in rosenblatt_measure()]
    targets = [ZElem(1, 0, 0), ZElem(0, 1, 0), ZElem(0, 0, 1)]

    support_gens = atoms + [z_inverse(x) for x in atoms]
    adapted = _bfs_reaches(support_gens, targets, max_word_length, max_states)

    s0_inv = z_inverse(atoms[0])
    diffs = [z_multiply(s0_inv, s) for s in atoms[1:]]
    conjugators = _ball(support_gens, 1)
    diff_gens: List[ZElem] = []
    for w in conjugators:
        w_inv = z_inverse(w)
        for d in diffs:
            for e in (d, z_inverse(d)):
                diff_gens.append(z_multiply(z_multiply(w, e), w_inv))
    diff_gens = list(dict.fromkeys(diff_gens))
    aperiodic = _bfs_reaches(diff_gens, targets, max_word_length, max_states)
    return adapted and aperiodic
