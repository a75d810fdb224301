"""The lattice of twin binary trees.

Vertices are twin pairs (equal size, complementary canopies); the order
compares rotation vectors contravariantly on the left tree and
covariantly on the right tree.  It is the image of the right weak order
under insertion: covers rotate one tree keeping its canopy, or both
trees at the same canopy position.  A rotation keeps the canopy unless
the subtree it moves across is empty, so :func:`baxter_covers` reads the
covers off the infix-numbered tree edges.  Meets and joins project the weak
order meet/join of class extremes.  :func:`baxter_interval` lists the
pairs between two pairs; :func:`enumerate_tbt`, one degree's interval in
canonical order, and :func:`hasse`, its covers, are all the order-sum
tables of :mod:`baxter.hopf` are built from.
"""

from __future__ import annotations

from typing import NamedTuple

from . import config
from .insertion import check_twin_pair, max_perm, min_perm, p_shape
from .perms import weak_order_join, weak_order_meet
from .trees import infix_edges, pair_str, rotations, tamari_leq, twin_box


class PairCover(NamedTuple):
    """A cover move in the lattice: the target pair and which case fired."""

    target: tuple
    case: str  # "left-only" | "right-only" | "simultaneous"


def baxter_interval(lo, hi) -> list:
    """The twin pairs ``j`` with ``lo <= j <= hi``: left trees from ``hi``'s
    up to ``lo``'s, right trees from ``lo``'s up to ``hi``'s.  The partners
    of a right tree, the trees of one canopy, are one such interval:

    >>> lo, hi = p_shape((1, 3, 2)), p_shape((3, 1, 2))
    >>> [pair_str(j) for j in baxter_interval(lo, hi)]
    ['[ ((. (. .)) .) | ((. .) (. .)) ]', '[ (. ((. .) .)) | ((. .) (. .)) ]']
    """
    return twin_box(hi[0], lo[0], lo[1], hi[1])


@config.capped_cache(config.check_enum_degree)
def enumerate_tbt(n: int) -> tuple:
    """All twin pairs of size ``n`` (Baxter many), in the canonical order:
    the interval between the shapes of ``1..n`` and ``n..1``, sorted by
    :func:`~baxter.trees.pair_str`.

    >>> [len(enumerate_tbt(k)) for k in range(5)]
    [1, 1, 2, 6, 22]
    """
    bottom, top = p_shape(range(1, n + 1)), p_shape(range(n, 0, -1))
    return tuple(sorted(baxter_interval(bottom, top), key=pair_str))


def baxter_leq(j0, j1) -> bool:
    """Order on twin pairs: left vectors decrease, right vectors increase.

    The left trees are compared first; the right trees only when that
    comparison holds.  The vectors of small trees come from the memo of
    :func:`~baxter.trees.tamari_vector`, so a sweep over the pairs of a
    degree walks each tree once.

    >>> j12, j21 = p_shape((1, 2)), p_shape((2, 1))
    >>> baxter_leq(j12, j21), baxter_leq(j21, j12)
    (True, False)
    """
    return tamari_leq(j1[0], j0[0]) and tamari_leq(j0[1], j1[1])


def baxter_covers(j) -> frozenset:
    """The covers of ``j``, from the (parent, child) edges of its trees
    numbered 1..n in infix order.  A rotation keeps the canopy unless the
    subtree it moves across is empty, so: a left-tree edge (p, c) with
    c > p + 1 gives the *left-only* ``left_rotate(left, p)``; a right-tree
    edge (p, c) with c < p - 1 the *right-only* ``right_rotate(right, p)``;
    and left edge (i, i + 1) with right edge (i + 1, i) the *simultaneous*
    ``left_rotate(left, i)``, ``right_rotate(right, i + 1)``, which flip
    the same canopy bit.  Output-sensitive: two walks of each tree, for
    its edges and for the parent links of :func:`~baxter.trees.rotations`,
    then one rotation per cover, in the pivot's depth.

    >>> [c.case for c in baxter_covers(p_shape((1, 2)))]
    ['simultaneous']
    """
    tl, tr = check_twin_pair(j)
    left_edges, right_edges = infix_edges(tl)[1], infix_edges(tr)[1]
    lefts = [p for p, c in left_edges if c > p + 1]
    rights = [p for p, c in right_edges if c < p - 1]
    falls = {c for p, c in right_edges if c == p - 1}
    both = [p for p, c in left_edges if c == p + 1 and p in falls]
    ul = rotations(tl, lefts + both, False)
    ur = rotations(tr, rights + [p + 1 for p in both], True)
    covers = [PairCover((u, tr), "left-only") for u in ul[:len(lefts)]]
    covers += [PairCover((tl, u), "right-only") for u in ur[:len(rights)]]
    covers += [PairCover(pair, "simultaneous")
               for pair in zip(ul[len(lefts):], ur[len(rights):])]
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


@config.capped_cache(config.check_enum_degree)
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
