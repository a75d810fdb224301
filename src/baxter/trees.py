"""Planar binary trees, labeled and unlabeled.

A tree is ``None`` (the leaf) or a ``Node(left, right)``; labeled trees
use ``LNode(label, left, right)``.  Both are immutable and hashable, so
trees double as dictionary keys.  :func:`twin_box` lists twin pairs.

Node positions are always the 1-based infix index (left subtree, node,
right subtree).  Text form: ``.`` for the leaf, ``(L R)`` for a node,
``(label L R)`` for a labeled node; a pair of trees prints as
``[ T | T' ]``.  Round-trips are bit-exact.  :func:`canopy` answers the
trees that :func:`~baxter.insertion.p_shape` has just built from a small
memo that insertion fills, keyed by identity.

Labeled trees are only parsed and printed here: the insertion of
:mod:`baxter.insertion` builds its labeled trees from flat arrays, and
the letter-by-letter oracles that forget labels or split a search tree
at a letter live in :mod:`baxter.verify`.
"""

from __future__ import annotations

from operator import eq, le, ne
from typing import NamedTuple, Optional


class Node(NamedTuple):
    left: Optional["Node"]
    right: Optional["Node"]


class LNode(NamedTuple):
    label: int
    left: Optional["LNode"]
    right: Optional["LNode"]


def size(t) -> int:
    """Number of internal nodes: the length of :func:`tamari_vector`.

    >>> size(Node(Node(None, None), None))
    2
    """
    return len(tamari_vector(t))


# ---------------------------------------------------------------------------
# serialization


def _text(t, labeled) -> str:
    # Iterative: go down each left spine, stacking each right subtree still
    # to print with the number of ")" that follow its text.  A labeled node
    # opens with a "{}" field, and one str.format call fills the fields
    # with the labels in print order: format() gives each label the text
    # an f-string would, and the fields come from here, never from a label.
    labels = []
    parts = []
    todo = []
    node, closes = t, 0
    while True:
        while node is not None:
            if labeled:
                labels.append(node.label)
                parts.append("({} ")
            else:
                parts.append("(")
            todo.append((node.right, closes + 1))
            node, closes = node.left, 0
        parts.append(".")
        if closes:
            parts.append(")" * closes)
        if not todo:
            text = "".join(parts)
            return text.format(*labels) if labeled else text
        parts.append(" ")
        node, closes = todo.pop()


def tree_str(t) -> str:
    """Canonical text form of an unlabeled tree.

    >>> tree_str(Node(Node(None, None), None))
    '((. .) .)'
    """
    return _text(t, False)


def ltree_str(t) -> str:
    """Canonical text form of a labeled tree.

    >>> ltree_str(LNode(3, LNode(1, None, None), None))
    '(3 (1 . .) .)'
    """
    return _text(t, True)


def pair_str(pair) -> str:
    """Canonical text form of a pair of unlabeled trees.

    >>> pair_str((None, None))
    '[ . | . ]'
    """
    return pair_text(tree_str(pair[0]), tree_str(pair[1]))


def pair_text(left, right) -> str:
    """The text form of a pair from the text forms of its two trees.

    >>> pair_text("(. .)", "(. .)")
    '[ (. .) | (. .) ]'
    """
    return f"[ {left} | {right} ]"


class ParseError(ValueError):
    """Malformed tree text; ``position`` is the 0-based offset."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class _Scanner:
    def __init__(self, text):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch):
        if self.peek() != ch:
            raise ParseError(f"expected {ch!r}", self.pos)
        self.pos += 1

    def integer(self):
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            raise ParseError("expected an integer label", start)
        return int(self.text[start : self.pos])

    def done(self):
        self.skip_ws()
        if self.pos < len(self.text):
            raise ParseError("trailing input", self.pos)


def _parse(sc: _Scanner, labeled):
    # Iterative: each open node collects its label (if labeled) and its
    # finished children; the node closes at its ")" once both are in.
    full = 3 if labeled else 2
    opened = []
    while True:
        ch = sc.peek()
        if ch == "(":
            sc.pos += 1
            opened.append([sc.integer()] if labeled else [])
            continue
        if ch != ".":
            raise ParseError("expected '(' or '.'", sc.pos)
        sc.pos += 1
        t = None
        while opened:
            parts = opened[-1]
            parts.append(t)
            if len(parts) < full:
                break
            opened.pop()
            sc.expect(")")
            t = LNode(*parts) if labeled else Node(*parts)
        else:
            return t


def parse_tree(text: str):
    """Parse an unlabeled tree; inverse of :func:`tree_str`.

    >>> parse_tree("((. .) .)") == Node(Node(None, None), None)
    True
    """
    sc = _Scanner(text)
    t = _parse(sc, False)
    sc.done()
    return t


def parse_labeled_tree(text: str):
    """Parse a labeled tree; inverse of :func:`ltree_str`."""
    sc = _Scanner(text)
    t = _parse(sc, True)
    sc.done()
    return t


def parse_pair(text: str):
    """Parse ``[ T | T' ]``; inverse of :func:`pair_str`."""
    sc = _Scanner(text)
    sc.expect("[")
    left = _parse(sc, False)
    sc.expect("|")
    right = _parse(sc, False)
    sc.expect("]")
    sc.done()
    return (left, right)


# ---------------------------------------------------------------------------
# grafting and rotations


def graft_over(t0, t1):
    """``t0 / t1``: ``t1``'s root on top, ``t0`` replacing its leftmost leaf.

    Rebuilds ``t1``'s left spine bottom-up: iterative, so trees of any
    depth work at the default recursion limit.

    >>> tree_str(graft_over(Node(None, None), Node(None, None)))
    '((. .) .)'
    """
    rights = []
    while t1 is not None:
        rights.append(t1.right)
        t1 = t1.left
    for right in reversed(rights):
        t0 = Node(t0, right)
    return t0


def graft_under(t0, t1):
    """``t0 \\ t1``: ``t0``'s root on top, ``t1`` replacing its rightmost leaf.

    Rebuilds ``t0``'s right spine bottom-up, iteratively.

    >>> tree_str(graft_under(Node(None, None), Node(None, None)))
    '(. (. .))'
    """
    lefts = []
    while t0 is not None:
        lefts.append(t0.left)
        t0 = t0.right
    for left in reversed(lefts):
        t1 = Node(left, t1)
    return t1


def _rebuild(path, t):
    """Put ``t`` back where a path of ``(ancestor, side)`` steps ends,
    bottom-up."""
    for node, side in reversed(path):  # tuple.__new__ skips Node's Python frame
        t = tuple.__new__(Node, (node.left, t) if side else (t, node.right))
    return t


def _parent_links(n, edges) -> list:
    # parents[c], the infix number of node c's parent (0 at the root), for
    # c = 1..n, from the output of infix_edges
    parents = [0] * (n + 1)
    for p, c in edges:
        parents[c] = p
    return parents


def _rotate_at(t, parents, pivots, right) -> list:
    # rotations(), given the parent links of t's nodes
    out = []
    for i in pivots:
        if not (isinstance(i, int) and 0 < i < len(parents)):
            raise ValueError(f"infix index {i} out of range")
        up = [i]  # infix numbers from the pivot up to the root
        while parents[up[-1]]:
            up.append(parents[up[-1]])
        path, node = [], t
        for k in range(len(up) - 1, 0, -1):
            side = up[k - 1] > up[k]
            path.append((node, side))
            node = node.right if side else node.left
        if right:
            x = node.left
            if x is None:
                raise ValueError(f"node {i} has no left subtree; cannot rotate right")
            out.append(_rebuild(path, Node(x.left, Node(x.right, node.right))))
        else:
            y = node.right
            if y is None:
                raise ValueError(f"node {i} has no right subtree; cannot rotate left")
            out.append(_rebuild(path, Node(Node(node.left, y.left), y.right)))
    return out


def rotations(t, pivots, right) -> list:
    """``t`` rotated right (``right`` true) or left at each infix index
    of ``pivots``, in order, as :func:`right_rotate` and
    :func:`left_rotate` rotate it.  One walk links every node to its
    parent; each rotation then climbs the links from its pivot and
    rebuilds the path above it, in the pivot's depth.  Iterative.

    >>> [tree_str(u) for u in rotations(parse_tree("(((. .) .) .)"), (2, 3), True)]
    ['((. (. .)) .)', '((. .) (. .))']
    """
    return _rotate_at(t, _parent_links(*infix_edges(t)), pivots, right)


def right_rotate(t, i):
    """Right rotation whose pivot is the node at infix index ``i``.

    The pivot's left child moves up: (A x B) y C  becomes  A x (B y C).
    The pivot must have a nonempty left subtree.  Iterative, so trees of
    any depth work at the default recursion limit.

    >>> tree_str(right_rotate(parse_tree("((. .) .)"), 2))
    '(. (. .))'
    """
    return rotations(t, (i,), True)[0]


def left_rotate(t, i):
    """Left rotation whose pivot is the node at infix index ``i``.

    The pivot's right child moves up: A x (B y C)  becomes  (A x B) y C.
    The pivot must have a nonempty right subtree.  Inverse to
    :func:`right_rotate` applied at the promoted node.  Iterative.

    >>> tree_str(left_rotate(parse_tree("(. (. .))"), 1))
    '((. .) .)'
    """
    return rotations(t, (i,), False)[0]


# ---------------------------------------------------------------------------
# canopy and the rotation (Tamari) order


def infix_edges(t):
    """Node count and (parent, child) edges of ``t``, its nodes numbered
    1..n in infix order: a right child above its parent, a left child
    below.  Iterative, so trees of any depth work.

    >>> infix_edges(parse_tree("((. .) (. .))"))
    (3, [(2, 1), (2, 3)])
    """
    edges = []
    spine = []  # [node, parent's number if a right child else 0, left child's]
    node, parent, n = t, 0, 0
    while True:
        while node is not None:
            spine.append([node, parent, 0])
            node, parent = node.left, 0
        if not spine:
            return n, edges
        node, parent, left = spine.pop()
        n += 1
        if left:
            edges.append((n, left))
        if parent:
            edges.append((parent, n))
        elif spine:  # a left child, pushed right above its parent
            spine[-1][2] = n
        node, parent = node.right, n


# Canopies of the trees that insertion has just built, by object identity:
# id(t) -> (t, canopy), filled by ``insertion._shape`` only, which reads
# them off its insertion arrays.  An entry holds its tree, so the id is not
# reused while the entry lives; no tree is hashed or compared.  The first
# 1,000 requests of the `words` workload (seed 1) ask for 1,470 canopies
# and fill 1,024 entries, and a repeated insert comes within 32 requests of
# its first: with 128 entries, emptied when full, 1,464 of the 1,470 are
# answered here (1,420 with 64).  `bx verify all --max-n 5` fills 772.
_CANOPY_MEMO = {}
_CANOPY_MEMO_ENTRIES = 128


def remember_canopy(t, text) -> None:
    """Record ``text`` as the canopy of the tree ``t`` (not the leaf),
    for :func:`canopy` to return while the entry lives."""
    if len(_CANOPY_MEMO) >= _CANOPY_MEMO_ENTRIES:
        _CANOPY_MEMO.clear()
    _CANOPY_MEMO[id(t)] = (t, text)


def canopy(t) -> str:
    """Orientation word of the leaves, first and last dropped.

    Browsing leaves left to right, a leaf that is a right child
    contributes ``0`` and a left child contributes ``1``.  The trees of
    a twin pair that :func:`~baxter.insertion.p_shape` has just built are
    answered from a memo keyed by object identity, which it fills from
    its insertion arrays; any other tree is walked, iteratively.

    >>> canopy(parse_tree("(((. .) ((. .) .)) ((. .) (. .)))"))
    '0100101'
    >>> canopy(Node(None, None))
    ''
    """
    hit = _CANOPY_MEMO.get(id(t))
    if hit is not None and hit[0] is t:
        return hit[1]
    if t is None:
        raise ValueError("canopy of the empty tree is undefined")
    # Between infix nodes k and k + 1 sits one leaf: node k's right leaf
    # (0) if it has no right child, else node k + 1's left leaf (1).
    bits = []
    spine = []
    node = t
    while True:
        while node is not None:
            spine.append(node)
            node = node.left
        if not spine:
            return "".join(bits[:-1])
        node = spine.pop()
        bits.append("0" if node.right is None else "1")
        node = node.right


_FLIP = str.maketrans("01", "10")


def complement_canopy(c: str) -> str:
    """Flip every bit.

    >>> complement_canopy("0100101")
    '1011010'
    """
    return c.translate(_FLIP)


def canopies_complementary(c0: str, c1: str) -> bool:
    """True iff the canopy words have equal length and differ in every
    position: ``c1`` is ``c0`` with every bit flipped."""
    return c1 == c0.translate(_FLIP)


# Rotation vectors of small trees, by object identity: id(t) -> (t, vector).
# An entry holds its tree, so the id is not reused while the entry lives;
# no tree is hashed or compared, which recurses in C on deep trees.
# `bx verify all` asks for 53,606 vectors of 1,969 distinct trees at
# `--max-n 5`, and 674,722 of 7,669 at `--max-n 6`, but its sweeps go one
# degree at a time: with 512 entries, emptied when full, 2,557 and 11,597
# of those calls walk a tree.
_VECTOR_MEMO = {}
_VECTOR_MEMO_ENTRIES = 512
_VECTOR_MEMO_NODES = 64


def tamari_vector(t) -> tuple:
    """For each node (infix order), the smallest infix index in its subtree.

    One iterative infix walk: a node's entry is 1 + the number of nodes
    emitted before its subtree, and a left child's subtree starts where
    its parent's does.  Componentwise comparison of these vectors is the
    rotation order: right rotations increase the vector.  Trees of at
    most 64 nodes are memoized by object identity (at most 512 of them),
    so a sweep over pairs walks each tree once.

    >>> tamari_vector(parse_tree("(((. .) .) .)"))
    (1, 1, 1)
    >>> tamari_vector(parse_tree("(. (. (. .)))"))
    (1, 2, 3)
    """
    hit = _VECTOR_MEMO.get(id(t))
    if hit is not None and hit[0] is t:
        return hit[1]
    out = []
    spine = []  # node, its entry, node, its entry, ...: deepest last
    node = t
    while True:
        first = len(out) + 1
        while node is not None:
            spine.append(node)
            spine.append(first)
            node = node.left
        if not spine:
            break
        out.append(spine.pop())
        node = spine.pop().right
    vector = tuple(out)
    if len(vector) <= _VECTOR_MEMO_NODES:
        if len(_VECTOR_MEMO) >= _VECTOR_MEMO_ENTRIES:
            _VECTOR_MEMO.clear()
        _VECTOR_MEMO[id(t)] = (t, vector)
    return vector


def tamari_leq(t0, t1) -> bool:
    """Rotation order on equal-sized trees, via vector comparison.

    >>> tamari_leq(parse_tree("((. .) (. .))"), parse_tree("((. (. .)) .)"))
    False
    """
    v0, v1 = tamari_vector(t0), tamari_vector(t1)
    if len(v0) != len(v1):
        raise ValueError("sizes differ")
    return all(map(le, v0, v1))


def tamari_interval(lo, hi) -> list:
    """The trees ``t`` with ``lo <= t <= hi`` in the rotation order: the
    right rotations up from ``lo`` that stay below ``hi``, since each tree
    of the interval ends a chain of covers inside it.

    Each member carries its vector.  A right rotation at node ``p`` whose
    left child is ``c`` changes one entry, to ``v[p] = c + 1``, so it
    stays below ``hi`` when that entry does; members are told apart by
    their vectors, which hash flat, and only the rotations kept are built.

    >>> [tree_str(t) for t in tamari_interval(parse_tree("((. .) .)"), parse_tree("(. (. .))"))]
    ['((. .) .)', '(. (. .))']
    """
    return _rotation_interval(lo, hi)[0]


def _rotation_interval(lo, hi):
    """``(members, vectors)``: the trees of :func:`tamari_interval` and
    their rotation vectors, in the same order."""
    if not tamari_leq(lo, hi):
        return [], []
    top = tamari_vector(hi)
    vectors = [tamari_vector(lo)]
    seen, out = set(vectors), [lo]
    for t, v in zip(out, vectors):  # both grow as they go
        n, edges = infix_edges(t)
        pivots = []
        for p, c in edges:
            if c < p and c < top[p - 1]:  # a left child, and room to rotate
                w = v[:p - 1] + (c + 1,) + v[p:]
                if w not in seen:
                    seen.add(w)
                    vectors.append(w)
                    pivots.append(p)
        if pivots:
            out += _rotate_at(t, _parent_links(n, edges), pivots, True)
    return out, vectors


def twin_box(left_lo, left_hi, right_lo, right_hi) -> list:
    """The twin pairs with left tree in the rotation interval [``left_lo``,
    ``left_hi``] and right tree in [``right_lo``, ``right_hi``], matched by
    canopies read off the walk's vectors: bit k is 1 when node k + 2 has no
    left child, so that its subtree starts at it: ``v[k + 1] == k + 2``."""
    def bits(v, test):  # the canopy with ``eq``, its complement with ``ne``
        return tuple(map(test, v[1:], range(2, len(v) + 1)))
    rights = {}
    for right, v in zip(*_rotation_interval(right_lo, right_hi)):
        rights.setdefault(bits(v, eq), []).append(right)
    return [(left, right) for left, v in zip(*_rotation_interval(left_lo, left_hi))
            for right in rights.get(bits(v, ne), ())]
