"""The lattice of twin binary trees.

Vertices are twin pairs (equal size, complementary canopies); the order
compares rotation vectors contravariantly on the left tree and
covariantly on the right tree.  It is the image of the right weak order
under insertion: covers rotate one tree keeping its canopy, or both
trees at the same canopy position.  Meets and joins project the weak
order meet/join of class extremes.  :func:`enumerate_tbt` lists the
pairs of a degree in canonical order and :func:`hasse` their covers;
the order-sum tables of :mod:`baxter.hopf` are built from these alone.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from . import config
from .insertion import check_twin_pair, max_perm, min_perm, p_shape
from .perms import weak_order_join, weak_order_meet
from .trees import (
    canopy,
    complement_canopy,
    left_rotate,
    pair_str,
    right_rotate,
    size,
    tamari_leq,
    trees_by_canopy,
)


class PairCover(NamedTuple):
    """A cover move in the lattice: the target pair and which case fired."""

    target: tuple
    case: str  # "left-only" | "right-only" | "simultaneous"


@lru_cache(maxsize=None)
def enumerate_tbt(n: int) -> tuple:
    """All twin pairs of size ``n`` (Baxter many), in the canonical order:
    sorted by :func:`~baxter.trees.pair_str`.

    >>> [len(enumerate_tbt(k)) for k in range(5)]
    [1, 1, 2, 6, 22]
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    config.check_enum_degree(n)
    groups = trees_by_canopy(n)
    pairs = [(tl, tr) for c, lefts in groups.items() for tl in lefts
             for tr in groups.get(complement_canopy(c), ())]
    return tuple(sorted(pairs, key=pair_str))


def baxter_leq(j0, j1) -> bool:
    """Order on twin pairs: left vectors decrease, right vectors increase.

    The left trees are compared first; the right trees are walked only
    when that comparison holds.  Each call walks its trees afresh, so a
    sweep over many pairs should compute the vectors once itself.

    >>> j12, j21 = p_shape((1, 2)), p_shape((2, 1))
    >>> baxter_leq(j12, j21), baxter_leq(j21, j12)
    (True, False)
    """
    return tamari_leq(j1[0], j0[0]) and tamari_leq(j0[1], j1[1])


def _diff_bit(c0: str, c1: str) -> int:
    diffs = [i for i, (a, b) in enumerate(zip(c0, c1)) if a != b]
    if len(diffs) != 1:
        raise RuntimeError("rotation changed more than one canopy bit")
    return diffs[0]


def baxter_covers(j) -> frozenset:
    """The covers of ``j``: canopy-preserving left rotations of the left
    tree, canopy-preserving right rotations of the right tree, and
    simultaneous canopy-changing rotations at a shared position.

    >>> [c.case for c in baxter_covers(p_shape((1, 2)))]
    ['simultaneous']
    """
    tl, tr = check_twin_pair(j)
    n = size(tl)
    if n < 2:
        return frozenset()
    covers = set()
    sides = ((tl, left_rotate, "left-only"), (tr, right_rotate, "right-only"))
    changing = ({}, {})  # per side: canopy bit -> the tree rotated there
    for side, (tree, rotate, case) in enumerate(sides):
        c = canopy(tree)
        for i in range(1, n + 1):
            try:
                rotated = rotate(tree, i)
            except ValueError:
                continue
            c2 = canopy(rotated)
            if c2 == c:
                target = (rotated, tr) if side == 0 else (tl, rotated)
                covers.add(PairCover(target, case))
            else:
                changing[side][_diff_bit(c, c2)] = rotated
    for bit, new_left in changing[0].items():
        new_right = changing[1].get(bit)
        if new_right is not None:
            covers.add(PairCover((new_left, new_right), "simultaneous"))
    return frozenset(covers)


def baxter_meet(j0, j1):
    """Greatest lower bound: project the weak-order meet of the least
    class members.

    >>> j = baxter_meet(p_shape((2, 1, 3)), p_shape((1, 3, 2)))
    >>> j == p_shape((1, 2, 3))
    True
    """
    return p_shape(weak_order_meet(min_perm(j0), min_perm(j1)))


def baxter_join(j0, j1):
    """Least upper bound: project the weak-order join of the greatest
    class members."""
    return p_shape(weak_order_join(max_perm(j0), max_perm(j1)))


@lru_cache(maxsize=None)
def hasse(n: int) -> tuple:
    """The covers of each pair of ``enumerate_tbt(n)``, in that order, as
    sorted ``(position, case)`` tuples: the target's position in
    :func:`enumerate_tbt` and the :class:`PairCover` case.

    >>> hasse(2)
    ((), ((0, 'simultaneous'),))
    """
    pairs = enumerate_tbt(n)
    index = {j: i for i, j in enumerate(pairs)}
    return tuple(
        tuple(sorted((index[c.target], c.case) for c in baxter_covers(j)))
        for j in pairs
    )


def positions(mask: int):
    """The positions of the set bits of ``mask``, lowest first."""
    while mask:
        yield (mask & -mask).bit_length() - 1
        mask &= mask - 1


def hasse_dot(n: int) -> str:
    """The cover digraph in DOT form, vertices and edges in the canonical
    order of :func:`enumerate_tbt` and :func:`hasse`."""
    texts = [pair_str(j) for j in enumerate_tbt(n)]
    lines = [f'digraph "twin_tree_lattice_{n}" {{']
    lines += [f'  "{text}";' for text in texts]
    lines += [f'  "{texts[i]}" -> "{texts[k]}";'
              for i, covers in enumerate(hasse(n)) for k, _ in covers]
    lines.append("}")
    return "\n".join(lines)
