"""Ready-made motion group families used by the test suite and scripts."""
from __future__ import annotations

import numpy as np

from .groups import MotionGroup, build_motion_group

__all__ = [
    "cyclic_table",
    "trivial_group",
    "negation_group",
    "scaling_group",
    "swap_group",
    "rotation_group",
]


def cyclic_table(m: int) -> list:
    return [[(i + j) % m for j in range(m)] for i in range(m)]


def trivial_group(n: int, d: int = 1) -> MotionGroup:
    """(Z_n)^d with a trivial point group: the plain abelian case."""
    eye = np.eye(d, dtype=int).tolist()
    return build_motion_group(n, d, [[0]], [eye])


def negation_group(n: int) -> MotionGroup:
    """Z_n x| Z_2 with the flip s: a -> -a (order 2n)."""
    return build_motion_group(n, 1, cyclic_table(2), [[[1]], [[n - 1]]])


def scaling_group(n: int, mult: int, k_order: int) -> MotionGroup:
    """Z_n x| Z_k with s: a -> mult*a; mult must have order k mod n."""
    mats = [[[pow(mult, j, n)]] for j in range(k_order)]
    return build_motion_group(n, 1, cyclic_table(k_order), mats)


def swap_group(n: int) -> MotionGroup:
    """(Z_n)^2 x| Z_2 swapping the two coordinates."""
    mats = [np.eye(2, dtype=int).tolist(), [[0, 1], [1, 0]]]
    return build_motion_group(n, 2, cyclic_table(2), mats)


def rotation_group(n: int) -> MotionGroup:
    """(Z_n)^2 x| Z_4 generated by the quarter turn [[0,-1],[1,0]]."""
    rot = np.array([[0, -1], [1, 0]])
    mats = [np.linalg.matrix_power(rot, j) % n for j in range(4)]
    return build_motion_group(n, 2, cyclic_table(4), [m.tolist() for m in mats])
