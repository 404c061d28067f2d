"""Group construction, element arithmetic and the dual action."""
from __future__ import annotations

import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from motionwalk.errors import NotAGroupTable, NotAHomomorphism, NotInvertible
from motionwalk.measures import delta, uniform
from motionwalk.reps import complement_basis, fourier
from motionwalk.groups import (
    Character,
    GElem,
    _int_det,
    build_motion_group,
    dual_action,
    dual_orbits,
    dual_table,
    inverse,
    multiply,
    products,
)

from conftest import (
    cyclic_table,
    d4_group,
    negation_group,
    rotation_group,
    scaling_group,
    swap_group,
    trivial_group,
)
from oracles import cofactor_det, group_axiom_loops

ROOT = Path(__file__).resolve().parents[1]


def brute_force_axioms(g) -> None:
    """Independent group-axiom check straight from multiply/inverse."""
    elems = list(g.elements())
    e = g.identity()
    for x in elems:
        assert multiply(g, e, x) == x
        assert multiply(g, x, e) == x
        assert multiply(g, x, inverse(g, x)) == e
        assert multiply(g, inverse(g, x), x) == e
    rng = np.random.default_rng(7)
    for _ in range(200):
        x, y, z = (elems[rng.integers(len(elems))] for _ in range(3))
        assert multiply(g, multiply(g, x, y), z) == multiply(g, x, multiply(g, y, z))


def test_order10_builds_and_satisfies_axioms(order10):
    assert order10.size == 10
    brute_force_axioms(order10)


def test_trivial_k_group():
    g = trivial_group(2)
    assert g.size == 2
    brute_force_axioms(g)


def test_bad_action_is_not_a_homomorphism():
    # doubling mod 5 squares to x4, but s*s = identity in Z_2
    with pytest.raises(NotAHomomorphism):
        build_motion_group(5, 1, cyclic_table(2), [[[1]], [[2]]])


def test_noninvertible_action_rejected():
    with pytest.raises(NotInvertible):
        build_motion_group(4, 1, cyclic_table(2), [[[1]], [[2]]])


@pytest.mark.parametrize("d", range(1, 7))
def test_int_det_matches_cofactor_expansion(d):
    # small entries make zero pivots and singular matrices common
    rng = np.random.default_rng(d)
    for _ in range(60):
        m = rng.integers(-3, 4, size=(d, d))
        if rng.random() < 0.2 and d > 1:
            m[rng.integers(d)] = m[rng.integers(d)]
        assert _int_det(m.tolist()) == cofactor_det(m.tolist())
    big = rng.integers(-10**12, 10**12, size=(d, d)).tolist()
    assert _int_det(big) == cofactor_det(big)


def test_rank_20_group_file_parses_without_factorial_determinant():
    # |G| = 2^20 is inside MAX_GROUP_ORDER; a d! determinant would stall
    # the parse, so it runs in a child process under a timeout
    data = {"abelian": {"modulus": 2, "rank": 20},
            "k": {"table": [[0]], "action": [np.eye(20, dtype=int).tolist()]}}
    code = ("import json, sys\n"
            "from motionwalk.cli import parse_group_data\n"
            "print(parse_group_data(json.loads(sys.stdin.read())).size)")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, "-c", code], input=json.dumps(data), env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert int(done.stdout) == 1 << 20


def test_broken_table_rejected():
    with pytest.raises(NotAGroupTable):
        build_motion_group(3, 1, [[0, 1], [1, 1]], [[[1]], [[1]]])
    with pytest.raises(NotAGroupTable):
        build_motion_group(3, 1, [[1, 0], [0, 1]], [[[1]], [[1]]])
    with pytest.raises(NotAGroupTable):
        build_motion_group(1, 1, 5, [[[1]]])
    # Latin square with unit and two-sided inverses that cannot be a group:
    # every element squares to the identity but the order is 5
    latin = [
        [0, 1, 2, 3, 4],
        [1, 0, 3, 4, 2],
        [2, 4, 0, 1, 3],
        [3, 2, 4, 0, 1],
        [4, 3, 1, 2, 0],
    ]
    with pytest.raises(NotAGroupTable):
        build_motion_group(3, 1, latin, [[[1]]] * 5)


def _intercalates(table):
    """Every 2x2 Latin subsquare of a table off row and column 0, as
    (i, m, j, l): table[i, j] == table[m, l] and table[i, l] == table[m, j]."""
    order = len(table)
    pairs = [(a, b) for a in range(1, order) for b in range(a + 1, order)]
    return [(i, m, j, l) for i, m in pairs for j, l in pairs
            if table[i, j] == table[m, l] and table[i, l] == table[m, j]]


def _corrupt(g, how, rng):
    """The table and action of g with one defect of kind how."""
    table, action = g.k.table.copy(), g.k.action.copy()
    order, d, n = g.k.order, g.abelian.rank, g.abelian.modulus
    k = rng.integers(1, order)
    if how == "swapped entries":
        j, l = rng.choice(np.arange(1, order), size=2, replace=False)
        table[k, [j, l]] = table[k, [l, j]]
    elif how in ("broken inverse", "non-associative latin square"):
        # swapping an intercalate's two symbols keeps every row and column
        # a permutation; with a 0 in it, an element's left and right
        # inverses part
        squares = [(i, m, j, l) for i, m, j, l in _intercalates(table)
                   if (0 in (table[i, j], table[i, l])) == (how == "broken inverse")]
        i, m, j, l = squares[rng.integers(len(squares))]
        table[[i, i, m, m], [j, l, j, l]] = table[[i, i, m, m], [l, j, l, j]]
    elif how == "wrong action entry":
        action[k, rng.integers(d), rng.integers(d)] += rng.integers(1, n)
    elif how == "singular matrix":
        action[k, rng.integers(d)] = 0
    else:
        action[0] = action[k]
    return table.tolist(), action.tolist()


_CORRUPTIONS = ["swapped entries", "broken inverse", "non-associative latin square",
                "wrong action entry", "singular matrix", "non-identity action[0]"]
_AXIOM_GROUPS = {"cyclic": lambda: scaling_group(9, 2, 6), "d4": lambda: d4_group(5),
                 "rotation": lambda: rotation_group(5)}


# every loop of order below 5 is a group, so rotation's K = Z_4 carries no
# non-associative Latin square, and there a broken inverse makes another
# group table, which the action then fails
@pytest.mark.parametrize("base, how", [
    (base, how) for base in _AXIOM_GROUPS for how in _CORRUPTIONS
    if (base, how) != ("rotation", "non-associative latin square")])
def test_invalid_groups_fail_as_the_axiom_loops_do(base, how):
    # the whole-array checks raise the class and message of the
    # per-element loops: the same check fails first, at the same index
    g = _AXIOM_GROUPS[base]()
    rng = np.random.default_rng(sum(map(ord, how)))
    n, d = g.abelian.modulus, g.abelian.rank
    assert group_axiom_loops(n, d, g.k.table, g.k.action).tolist() == g.k.inverses.tolist()
    for _ in range(8):
        table, action = _corrupt(g, how, rng)
        with pytest.raises((NotAGroupTable, NotAHomomorphism, NotInvertible)) as want:
            group_axiom_loops(n, d, table, action)
        with pytest.raises(want.type, match=f"^{re.escape(str(want.value))}$"):
            build_motion_group(n, d, table, action)


def test_group_checks_at_the_k_cap_peak_below_16_mb():
    # K = Z_128 at cli.MAX_K_ORDER, acting by multiplication by 3 on Z_8 and
    # trivially on (Z_2)^13 (|G| = 2^20): no |K|^3 int64 table is held
    cyclic = cyclic_table(128)
    for n, d, action in ((8, 1, [[[pow(3, j, 8)]] for j in range(128)]),
                         (2, 13, [np.eye(13, dtype=int).tolist()] * 128)):
        tracemalloc.start()
        try:
            build_motion_group(n, d, cyclic, action)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 << 20, (n, d, peak)


def test_identity_action_must_be_identity():
    with pytest.raises(NotAHomomorphism):
        build_motion_group(5, 1, [[0]], [[[2]]])


def test_multiply_example(order10):
    # (2, s) * (3, 1) = (2 + 4*3 mod 5, s) = (4, s)
    out = multiply(order10, GElem((2,), 1), GElem((3,), 0))
    assert out == GElem((4,), 1)


def test_inverse_example(order10):
    # (1, s)^{-1} = (phi_s(-1), s) = (4*4 mod 5, s) = (1, s)
    assert inverse(order10, GElem((1,), 1)) == GElem((1,), 1)
    for x in order10.elements():
        assert inverse(order10, inverse(order10, x)) == x


def test_mult_table_matches_elementwise(request, order10):
    t = order10.mult_table()
    for i in range(order10.size):
        for j in range(order10.size):
            expect = multiply(order10, order10.element(i), order10.element(j))
            assert t[i, j] == order10.index(expect)
    # the vectorised inverse permutation, on the groups of the products check
    for g in (order10, request.getfixturevalue("order18"), rotation_group(4),
              request.getfixturevalue("order21"), request.getfixturevalue("order72")):
        inv = g.inv_perm()
        assert inv.dtype == np.int64 and inv.shape == (g.size,)
        for i in range(g.size):
            assert g.element(int(inv[i])) == inverse(g, g.element(i))


@pytest.mark.parametrize("group", ["order10", "order18", "rotation4", "order21", "order72"])
def test_products_match_elementwise(request, group):
    # every entry against multiply, for a scalar times a vector, a column
    # times a row and a vector times a scalar, repeated and unsorted indices
    # included
    g = rotation_group(4) if group == "rotation4" else request.getfixturevalue(group)

    def product(x, y):
        return g.index(multiply(g, g.element(int(x)), g.element(int(y))))

    ys = np.array([g.size - 1, 0, 3, 3, g.size // 2 + 1, 1])
    xs = np.arange(g.size)
    row = products(g, g.size - 2, ys)
    assert row.dtype == np.int32 and row.shape == ys.shape
    assert row.tolist() == [product(g.size - 2, y) for y in ys]
    table = products(g, xs[:, None], ys)
    assert table.dtype == np.int32 and table.shape == (g.size, len(ys))
    for x in xs:
        assert table[x].tolist() == [product(x, y) for y in ys]
    column = products(g, ys[::-1], 5)
    assert column.dtype == np.int32
    assert column.tolist() == [product(y, 5) for y in ys[::-1]]
    assert int(products(g, 7, 2)) == product(7, 2)


def test_dual_action_examples(order10):
    assert dual_action(order10, 1, Character((0,))) == Character((0,))
    assert dual_action(order10, 1, Character((1,))) == Character((4,))
    # action axiom, exhaustive
    for k1 in range(2):
        for k2 in range(2):
            k12 = int(order10.k.table[k1, k2])
            for a in range(5):
                ch = Character((a,))
                assert dual_action(order10, k12, ch) == dual_action(
                    order10, k1, dual_action(order10, k2, ch)
                )


def test_pairing_identity_exhaustive(order10):
    # <phi_k(a), alpha> = <a, phi_{k^{-1}}(alpha)> as exact integer exponents
    ab = order10.abelian
    for k in range(order10.k.order):
        kinv = order10.k.inv(k)
        for a in ab.elements():
            for alpha in ab.elements():
                lhs = ab.pairing_exponent(order10.act(k, a), alpha)
                rhs = ab.pairing_exponent(a, dual_action(order10, kinv, Character(alpha)).alpha)
                assert lhs == rhs


def test_dual_orbits_trivial_k():
    g = trivial_group(3, d=2)
    orbits = dual_orbits(g)
    assert len(orbits) == 9
    assert all(len(o.members) == 1 for o in orbits)
    assert orbits[0].representative == Character((0, 0))


def test_dual_orbits_order10(order10):
    orbits = dual_orbits(order10)
    got = [set(ch.alpha[0] for ch in o.members) for o in orbits]
    assert got == [{0}, {1, 4}, {2, 3}]
    assert [o.stabilizer_size for o in orbits] == [2, 1, 1]


@pytest.mark.parametrize("group", ["order10", "z2", "order16", "order21", "order20",
                                   "order18", "order72"])
def test_representatives_are_the_dual_orbit_representatives(request, group):
    g = request.getfixturevalue(group)
    want = [g.abelian.index(o.representative.alpha) for o in dual_orbits(g)]
    assert g._representatives.tolist() == want


@pytest.mark.parametrize("group", ["order10", "z2", "order16", "order21", "order20",
                                   "order18", "order72"])
def test_cached_tables_match_elementwise_and_are_shared_read_only(request, group):
    # every table a group builds once: its value against a recomputation
    # one entry at a time from dual_action, inverse, act and the K table;
    # the same object on a second call; and no write goes through
    g = request.getfixturevalue(group)
    ab, nk, n = g.abelian, g.k.order, g.abelian.modulus
    dual = [[ab.index(dual_action(g, k, Character(v)).alpha) for k in range(nk)]
            for v in ab.elements()]
    reps = [i for i, row in enumerate(dual) if min(row) == i]
    tables = {
        "dual table": (lambda: dual_table(g), dual),
        "inverse permutation": (g.inv_perm, [g.index(inverse(g, x)) for x in g.elements()]),
        "representatives": (lambda: g._representatives, reps),
        "phase orders": (lambda: g._phase_orders,
                         [[n // math.gcd(n, *ab.vector(dual[r][k])) for k in range(nk)]
                          for r in reps]),
        "block rows": (lambda: g._block_index[0],
                       [[[dual[r][k]] for k in range(nk)] for r in reps]),
        "block columns": (lambda: g._block_index[1],
                          [[[int(g.k.table[k, g.k.inv(c)]) for c in range(nk)]
                            for k in range(nk)]]),
        "int32 K table": (lambda: g._k_table32, g.k.table.tolist()),
        "moved digits": (lambda: g._moved_digits,
                         [[[g.act(k, ab.vector(b))[c] for b in range(ab.size)]
                           for k in range(nk)] for c in range(ab.rank)]),
        "complement basis": (lambda: complement_basis(g), None),
    }
    for name, (read, want) in tables.items():
        table = read()
        if want is None:
            # orthonormal columns, orthogonal to the constants
            assert table.shape == (nk, nk - 1), name
            assert np.allclose(table.T @ table, np.eye(nk - 1), atol=1e-13), name
            assert np.allclose(np.ones(nk) @ table, 0.0, atol=1e-13), name
        else:
            assert table.tolist() == want, name
        assert read() is table, name
        with pytest.raises(ValueError):
            table[...] = 0
    assert g._k_table32.dtype == np.int32 and g._moved_digits.dtype == np.int32


@pytest.mark.parametrize("maker", [lambda: trivial_group(1), lambda: negation_group(1),
                                   lambda: trivial_group(97), lambda: scaling_group(7, 2, 3),
                                   lambda: rotation_group(6), lambda: d4_group(5)])
def test_order_primes_are_the_primes_dividing_the_order(maker):
    g = maker()
    want = [q for q in range(2, g.size + 1)
            if g.size % q == 0 and all(q % r for r in range(2, q))]
    assert list(g._order_primes) == want
    assert g._order_primes is g._order_primes


@pytest.mark.parametrize("maker", [lambda: negation_group(7),
                                   lambda: scaling_group(7, 2, 3),
                                   lambda: swap_group(3),
                                   lambda: scaling_group(5, 2, 4),
                                   lambda: rotation_group(4),
                                   lambda: d4_group(5)])
def test_dual_orbits_partition(maker):
    g = maker()
    table = dual_table(g)
    assert table.shape == (g.abelian.size, g.k.order)
    for i, avec in enumerate(g.abelian.elements()):
        want = [g.abelian.index(dual_action(g, k, Character(avec)).alpha)
                for k in range(g.k.order)]
        assert table[i].tolist() == want
    orbits = dual_orbits(g)
    seen = set()
    for o in orbits:
        assert o.representative in o.members
        assert min(o.members, key=lambda c: c.alpha) == o.representative
        assert o.stabilizer_size * len(o.members) == g.k.order
        for ch in o.members:
            assert ch not in seen
            seen.add(ch)
            for k in range(g.k.order):
                assert dual_action(g, k, ch) in o.members
    assert len(seen) == g.abelian.size


@settings(max_examples=25, deadline=None)
@given(n=st.integers(2, 9), seed=st.integers(0, 10**6))
def test_random_negation_groups_are_valid(n, seed):
    g = negation_group(n)
    rng = np.random.default_rng(seed)
    elems = list(g.elements())
    for _ in range(20):
        x, y, z = (elems[rng.integers(len(elems))] for _ in range(3))
        assert multiply(g, multiply(g, x, y), z) == multiply(g, x, multiply(g, y, z))


@pytest.mark.parametrize("call", [
    lambda g: delta(g, GElem((0, 0), 5)),     # k outside K: was ((0, 1), 1)
    lambda g: delta(g, GElem((0,), 0)),       # rank 1 of 2: was the identity
    lambda g: fourier(uniform(g), Character((1,))),  # was the block of (0, 1)
    lambda g: g.element(g.size),              # was the identity
    lambda g: g.abelian.index((1, 2, 3)),     # was 27 >= |A| = 16
], ids=["delta_k", "delta_rank", "fourier_rank", "element", "abelian_index"])
def test_index_helpers_reject_what_names_no_element(call):
    # each of these named some other element of rotation_group(4)
    with pytest.raises(ValueError):
        call(rotation_group(4))
