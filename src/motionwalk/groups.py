"""Finite motion groups A x| K with a validated automorphism action.

A is the homogeneous abelian group (Z_n)^d, K is given extensionally by a
multiplication table, and K acts on A through integer matrices mod n.  The
dual group of A is identified with (Z_n)^d through the standard bilinear
pairing, and K acts on characters through the inverse matrices.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass, fields
from enum import Enum
from functools import cached_property
from math import gcd
from typing import Iterator, List, Sequence, Tuple

import numpy as np

from .errors import NotAGroupTable, NotAHomomorphism, NotInvertible

__all__ = [
    "AbelianGroup",
    "KGroup",
    "MotionGroup",
    "GElem",
    "Character",
    "Record",
    "DualOrbit",
    "build_motion_group",
    "multiply",
    "inverse",
    "dual_action",
    "dual_table",
    "dual_orbits",
    "products",
]


@dataclass(frozen=True)
class AbelianGroup:
    """The translation part (Z_n)^d; also serves as its own dual group."""

    modulus: int
    rank: int

    def __post_init__(self) -> None:
        if self.modulus < 1 or self.rank < 1:
            raise ValueError(f"need n >= 1 and d >= 1, got n={self.modulus}, d={self.rank}")

    @property
    def size(self) -> int:
        return self.modulus ** self.rank

    def index(self, vec: Sequence[int]) -> int:
        # lexicographic, first coordinate most significant; each read mod n
        if len(vec) != self.rank:
            raise ValueError(f"need a vector of length {self.rank}, got {tuple(vec)}")
        idx = 0
        for v in vec:
            idx = idx * self.modulus + (v % self.modulus)
        return idx

    def vector(self, idx: int) -> Tuple[int, ...]:
        out = []
        for _ in range(self.rank):
            out.append(idx % self.modulus)
            idx //= self.modulus
        return tuple(reversed(out))

    def elements(self) -> Iterator[Tuple[int, ...]]:
        for idx in range(self.size):
            yield self.vector(idx)

    def vectors(self) -> np.ndarray:
        """(size, d) array of every element vector, in index order."""
        return np.indices((self.modulus,) * self.rank).reshape(self.rank, -1).T

    def pairing_exponent(self, a: Sequence[int], alpha: Sequence[int]) -> int:
        """Integer e with <a, alpha> = exp(2*pi*i*e/n), reduced mod n."""
        return sum(x * y for x, y in zip(a, alpha)) % self.modulus


@dataclass(frozen=True)
class GElem:
    """Group element (a, k): translation vector and K-element index."""

    a: Tuple[int, ...]
    k: int


@dataclass(frozen=True)
class Character:
    """Character of A, identified with a vector alpha in (Z_n)^d."""

    alpha: Tuple[int, ...]

    def is_trivial(self) -> bool:
        return all(v == 0 for v in self.alpha)


class Record:
    """Base of the report dataclasses. to_dict is their JSON form: fields
    in declaration order, a Character as its vector, an enum as its value,
    tuples as lists, nested records recursively."""

    def to_dict(self) -> dict:
        return {f.name: _plain(getattr(self, f.name)) for f in fields(self)}


def _plain(v):
    if isinstance(v, Record):
        return v.to_dict()
    if isinstance(v, Character):
        return list(v.alpha)
    if isinstance(v, Enum):
        return v.value
    if isinstance(v, tuple):
        return [_plain(x) for x in v]
    return v


@dataclass(frozen=True)
class DualOrbit:
    representative: Character
    members: Tuple[Character, ...]
    stabilizer_size: int


@dataclass(frozen=True, eq=False)
class KGroup:
    """The rotation part: extension-by-table group with action matrices.

    table[i, j] is the index of k_i * k_j; index 0 is the identity.
    action[i] is the d x d integer matrix of phi_{k_i} acting on column
    vectors mod n.
    """

    order: int
    table: np.ndarray
    inverses: np.ndarray
    action: np.ndarray

    def inv(self, k: int) -> int:
        return int(self.inverses[k])


@dataclass(eq=False)
class MotionGroup:
    """Semidirect product G = A x| K with the fixed element enumeration
    (a lexicographic, then k index).

    The tables that depend on the group alone are built on first use and
    kept, read-only, for the group's lifetime: the digit table of products
    and its int32 K table, the dual table, the inverse permutation, the
    dual-orbit representatives, their phase orders and block index, the
    primes dividing |G|, and the complement basis of l2(K). dual_table(g),
    g._representatives, g.inv_perm() and g._complement_basis return these
    shared arrays, so a caller that wants to write copies first.
    """

    abelian: AbelianGroup
    k: KGroup

    @property
    def size(self) -> int:
        return self.abelian.size * self.k.order

    def index(self, x: GElem) -> int:
        if not 0 <= x.k < self.k.order:
            raise ValueError(f"need 0 <= k < {self.k.order}, got k = {x.k}")
        return self.abelian.index(x.a) * self.k.order + x.k

    def element(self, idx: int) -> GElem:
        if not 0 <= idx < self.size:
            raise ValueError(f"need 0 <= index < {self.size}, got {idx}")
        a_idx, k = divmod(idx, self.k.order)
        return GElem(self.abelian.vector(a_idx), k)

    def elements(self) -> Iterator[GElem]:
        for idx in range(self.size):
            yield self.element(idx)

    def identity(self) -> GElem:
        return GElem((0,) * self.abelian.rank, 0)

    def act(self, k: int, a: Sequence[int]) -> Tuple[int, ...]:
        """phi_k(a) = M_k a mod n (column convention)."""
        m = self.k.action[k]
        vec = np.asarray(a, dtype=np.int64)
        return tuple(int(v) for v in (m @ vec) % self.abelian.modulus)

    def mult_table(self) -> np.ndarray:
        """Dense |G| x |G| index table of x * y, products over every pair.
        Built anew on each call; the package never calls it."""
        xs = np.arange(self.size)
        return products(self, xs[:, None], xs)

    def inv_perm(self) -> np.ndarray:
        """Index permutation x -> x^{-1}, from
        (a, k)^{-1} = (-M_{k^{-1}} a, k^{-1}): the group's shared read-only
        table."""
        return self._inv_perm

    @cached_property
    def _inv_perm(self) -> np.ndarray:
        n, d = self.abelian.modulus, self.abelian.rank
        moved = np.einsum("ad,kmd->akm", self.abelian.vectors(), self.k.action[self.k.inverses])
        a_idx = (-moved % n) @ (n ** np.arange(d - 1, -1, -1, dtype=np.int64))
        return _frozen((a_idx * self.k.order + self.k.inverses).ravel())

    @cached_property
    def _moved_digits(self) -> np.ndarray:
        """(d, |K|, |A|) int32 table of the digits of M_k b, for products:
        built once per group, so a call costs its broadcast shape, not |G|."""
        n = self.abelian.modulus
        moved = np.einsum("kcd,bd->ckb", self.k.action, self.abelian.vectors()) % n
        return _frozen(moved.astype(np.int32))

    @cached_property
    def _k_table32(self) -> np.ndarray:
        """The K multiplication table as int32, the dtype of products."""
        return _frozen(self.k.table.astype(np.int32))

    @cached_property
    def _dual_table(self) -> np.ndarray:
        n, d = self.abelian.modulus, self.abelian.rank
        moved = np.einsum("id,kde->ike", self.abelian.vectors(),
                          self.k.action[self.k.inverses]) % n
        return _frozen(moved @ (n ** np.arange(d - 1, -1, -1, dtype=np.int64)))

    @cached_property
    def _representatives(self) -> np.ndarray:
        """A-indices of the dual-orbit representatives, in increasing order,
        trivial character first: the rows i of the dual table with minimum i.

        Row i of the dual table is the whole orbit of alpha_i, because K is
        a group, and A-index order is lexicographic order, so these are the
        orbits' lexicographically minimal members, one per orbit.
        """
        table = self._dual_table
        return _frozen(np.flatnonzero(table.min(axis=1) == np.arange(len(table))))

    @cached_property
    def _phase_orders(self) -> np.ndarray:
        """(orbits, nk) order m of the phases <a, beta_{k'}> over a in
        A = (Z_n)^d, alpha the character of each representative: they are
        the m-th roots of unity, m = n / gcd(beta_{k'}, n), with
        beta_{k'} = dual_action(k', alpha) read off the dual table."""
        betas = self.abelian.vectors()[self._dual_table[self._representatives]]
        n = self.abelian.modulus
        return _frozen(n // np.gcd.reduce(betas, axis=-1, initial=n))

    @cached_property
    def _order_primes(self) -> Tuple[int, ...]:
        """The primes dividing |G|, ascending; () for the trivial group.
        By Lagrange they bound the subgroups classify._closure builds."""
        primes, m, q = [], self.size, 2
        while q * q <= m:
            if m % q == 0:
                primes.append(q)
                while m % q == 0:
                    m //= q
            q += 1
        return tuple(primes + [m] * (m > 1))

    @cached_property
    def _block_index(self) -> Tuple[np.ndarray, np.ndarray]:
        """(rows, cols) placing the stack of every representative's block in
        the (|A|, |K|) A-Fourier transform: entry (r, k', c) of the stack
        is entry (rows[r, k', 0], cols[0, k', c]), the A-index of
        beta_{k'} = dual_action(k', alpha_r) and k' c^{-1}. cols is the
        same for any characters."""
        rows = self._dual_table[self._representatives]
        cols = self.k.table[:, self.k.inverses]
        return _frozen(rows[:, :, None]), _frozen(cols[None, :, :])

    @cached_property
    def _complement_basis(self) -> np.ndarray:
        """Orthonormal basis of the complement of constants in l2(K), the
        columns of a |K| x (|K|-1) matrix, from the Householder reflector
        sending e_0 to the normalized constants: the same on every run."""
        nk = self.k.order
        if nk == 1:
            return _frozen(np.zeros((1, 0)))
        u = np.full(nk, 1.0 / np.sqrt(nk))
        v = u.copy()
        v[0] -= 1.0
        v /= np.linalg.norm(v)
        q = np.eye(nk) - 2.0 * np.outer(v, v)    # q[:, 0] == u up to rounding
        return _frozen(q[:, 1:])


def _frozen(a: np.ndarray) -> np.ndarray:
    """a, made read-only: a cached table is shared by every caller."""
    a.flags.writeable = False
    return a


def _int_det(m: Sequence[Sequence[int]]) -> int:
    """Exact integer determinant by fraction-free Bareiss elimination on
    Python ints, d^3 steps: after step k every entry of the trailing block
    is a (k+1) x (k+1) minor, so the division by the previous pivot is
    exact and no entry outgrows the Hadamard bound."""
    a = [[int(v) for v in row] for row in m]
    d, sign, prev = len(a), 1, 1
    for k in range(d - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, d) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, d):
            for j in range(k + 1, d):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[-1][-1]


def _validate_k_table(table: np.ndarray) -> np.ndarray:
    """The inverses of an int64 K table, once it is a group table: one
    whole-array check per axiom, failing at its first index, row-major."""
    if table.ndim != 2 or table.shape[0] != table.shape[1]:
        raise NotAGroupTable(f"table must be square, got shape {table.shape}")
    order = table.shape[0]
    if table.min() < 0 or table.max() >= order:
        raise NotAGroupTable("table entries must be indices in [0, order)")
    idx = np.arange(order)
    if not (np.array_equal(table[0], idx) and np.array_equal(table[:, 0], idx)):
        raise NotAGroupTable("index 0 must be the identity")
    # row and column i are permutations: sorted, each reads idx
    rows, cols = np.sort(table, axis=1) == idx, np.sort(table.T, axis=1) == idx
    latin = rows.all(axis=1) & cols.all(axis=1)
    if not latin.all():
        raise NotAGroupTable(f"row/column {latin.argmin()} is not a permutation")
    inverses = table.argmin(axis=1)               # each row's one 0
    if (one_sided := table[inverses, idx] != 0).any():
        raise NotAGroupTable(f"element {one_sided.argmax()} has no two-sided inverse")
    # associativity, exhaustive: (ij)k against i(jk) over |K|^3 entries of
    # the narrowest dtype that holds an index
    t = table.astype(np.min_scalar_type(order))
    if (fails := t[t, :] != t[:, t]).any():
        bad = np.unravel_index(fails.argmax(), fails.shape)
        raise NotAGroupTable(f"associativity fails at triple {tuple(int(v) for v in bad)}")
    return inverses


def build_motion_group(
    n: int,
    d: int,
    table: Sequence[Sequence[int]],
    action_matrices: Sequence[Sequence[Sequence[int]]],
) -> MotionGroup:
    """Construct and fully validate a finite motion group.

    Raises NotAGroupTable, NotAHomomorphism or NotInvertible when the data
    does not describe a semidirect product.
    """
    n, d = operator.index(n), operator.index(d)
    abelian = AbelianGroup(n, d)
    table_arr = np.asarray(table, dtype=np.int64)
    inverses = _validate_k_table(table_arr)
    order = table_arr.shape[0]

    action = np.asarray(action_matrices, dtype=np.int64)
    if action.shape != (order, d, d):
        raise NotAHomomorphism(f"need one {d}x{d} matrix per K element, got shape {action.shape}")
    action = action % n
    if not np.array_equal(action[0], np.eye(d, dtype=np.int64) % n):
        raise NotAHomomorphism("action of the identity must be the identity matrix")
    # a distinct matrix is keyed by its bytes, and its determinant and row
    # of products are taken once
    keys = [m.tobytes() for m in action]
    dets = {}
    for i, key in enumerate(keys):
        if key not in dets:
            dets[key] = _int_det(action[i].tolist()) % n
        if gcd(dets[key], n) != 1:
            raise NotInvertible(f"action matrix {i} has det {dets[key]} not coprime to {n}")
    # phi_i phi_j = phi_{ij}, one table row at a time; a row of products is
    # held in the narrowest dtype of a residue (at most 2.8 MB in all under
    # the CLI's caps)
    rows, narrow = {}, np.min_scalar_type(n - 1)
    for i, key in enumerate(keys):
        if key not in rows:
            rows[key] = (action[i] @ action % n).astype(narrow)
        if (wrong := (rows[key] != action[table_arr[i]]).any(axis=(1, 2))).any():
            j = wrong.argmax()
            raise NotAHomomorphism(f"action[{i}]*action[{j}] != action[{i}*{j}] mod {n}")

    kgroup = KGroup(order=order, table=table_arr, inverses=inverses, action=action)
    return MotionGroup(abelian=abelian, k=kgroup)


def multiply(g: MotionGroup, x: GElem, y: GElem) -> GElem:
    """(a1, k1) * (a2, k2) = (a1 + phi_{k1}(a2), k1 k2)."""
    n = g.abelian.modulus
    moved = g.act(x.k, y.a)
    a = tuple((u + v) % n for u, v in zip(x.a, moved))
    return GElem(a, int(g.k.table[x.k, y.k]))


def inverse(g: MotionGroup, x: GElem) -> GElem:
    """(a, k)^{-1} = (phi_{k^{-1}}(-a), k^{-1})."""
    n = g.abelian.modulus
    kinv = g.k.inv(x.k)
    neg = tuple((-v) % n for v in x.a)
    return GElem(g.act(kinv, neg), kinv)


def dual_action(g: MotionGroup, k: int, alpha: Character) -> Character:
    """Action on characters: alpha -> alpha . M_{k^{-1}} (row convention).

    Satisfies <phi_k(a), alpha> = <a, dual_action(k^{-1}, alpha)> for all a.
    """
    m = g.k.action[g.k.inv(k)]
    vec = np.asarray(alpha.alpha, dtype=np.int64)
    moved = (vec @ m) % g.abelian.modulus
    return Character(tuple(int(v) for v in moved))


def dual_table(g: MotionGroup) -> np.ndarray:
    """(|A|, |K|) table whose entry [i, k] is the A-index of
    dual_action(k, alpha_i), alpha_i the character with A-index i: the
    group's shared read-only table."""
    return g._dual_table


def dual_orbits(g: MotionGroup) -> List[DualOrbit]:
    """Partition of the dual group into K-orbits, in g._representatives'
    order: the orbit of the trivial character first, each represented by
    its lexicographically minimal member. One sort of the representatives'
    rows of dual_table gives every orbit's members in order, each kept at
    its first occurrence.
    """
    reps = g._representatives
    table = np.sort(dual_table(g)[reps], axis=1)
    first = np.ones(table.shape, dtype=bool)
    first[:, 1:] = table[:, 1:] != table[:, :-1]
    chars = [Character(tuple(v)) for v in g.abelian.vectors().tolist()]
    orbits: List[DualOrbit] = []
    for i, row, keep in zip(reps.tolist(), table, first):
        members = row[keep].tolist()
        orbits.append(DualOrbit(representative=chars[i],
                                members=tuple(chars[j] for j in members),
                                stabilizer_size=g.k.order // len(members)))
    return orbits


def products(g: MotionGroup, xs, ys) -> np.ndarray:
    """int32 index of x * y for index arrays xs and ys broadcast against
    each other, from (a, k)(b, m) = (a + M_k b, k m): the package's one
    group law. The digits of M_k b come from the group's (d, |K|, |A|)
    table, and a + M_k b is added digit by digit in place, so the
    temporaries are two int32 arrays of the broadcast shape and a few of
    the shape of xs."""
    n, d, nk = g.abelian.modulus, g.abelian.rank, g.k.order
    a, k = np.divmod(np.asarray(xs), nk)
    b, m = np.divmod(np.asarray(ys), nk)
    moved = g._moved_digits
    out = g._k_table32[k, m]
    for c in range(d):
        place = n ** (d - 1 - c)
        digit = moved[c][k, b]
        digit += a // place      # = the digit of a, mod n
        digit %= n
        digit *= place * nk
        out += digit
    return out
