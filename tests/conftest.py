"""Shared group fixtures for the test suite."""
from __future__ import annotations

import numpy as np
import pytest

from motionwalk.families import (
    cyclic_table,
    negation_group,
    rotation_group,
    scaling_group,
    swap_group,
    trivial_group,
)
from motionwalk.groups import MotionGroup, build_motion_group

__all__ = [
    "cyclic_table",
    "trivial_group",
    "negation_group",
    "scaling_group",
    "swap_group",
    "rotation_group",
    "d4_group",
]


def d4_group(n: int) -> MotionGroup:
    """(Z_n)^2 x| D4, the symmetries of the square acting mod n: the closure
    of the quarter turn r and the reflection s, a non-abelian K of order 8
    for n >= 3, with the table read off the matrix products."""
    gens = [np.array([[0, -1], [1, 0]]) % n, np.array([[1, 0], [0, -1]]) % n]
    mats = [np.eye(2, dtype=np.int64)]
    for m in mats:
        for gen in gens:
            p = m @ gen % n
            if not any(np.array_equal(p, q) for q in mats):
                mats.append(p)
    keys = [m.tobytes() for m in mats]
    table = [[keys.index((a @ b % n).tobytes()) for b in mats] for a in mats]
    return build_motion_group(n, 2, table, mats)


@pytest.fixture
def no_mult_table(monkeypatch):
    """Every call of MotionGroup.mult_table fails the test: the package
    reads the group law through products and never builds the dense table."""
    def refuse(g):
        raise AssertionError(f"mult_table built on a group of order {g.size}")
    monkeypatch.setattr(MotionGroup, "mult_table", refuse)


@pytest.fixture(scope="session")
def order10() -> MotionGroup:
    return negation_group(5)


@pytest.fixture(scope="session")
def z2() -> MotionGroup:
    return trivial_group(2)


@pytest.fixture(scope="session")
def order16() -> MotionGroup:
    return negation_group(8)


@pytest.fixture(scope="session")
def order21() -> MotionGroup:
    # 2 has multiplicative order 3 mod 7
    return scaling_group(7, 2, 3)


@pytest.fixture(scope="session")
def order20() -> MotionGroup:
    # 2 has multiplicative order 4 mod 5
    return scaling_group(5, 2, 4)


@pytest.fixture(scope="session")
def order18() -> MotionGroup:
    return swap_group(3)


@pytest.fixture(scope="session")
def order72() -> MotionGroup:
    # non-abelian K: the dihedral group of order 8
    return d4_group(3)
