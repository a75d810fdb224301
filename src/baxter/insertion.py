"""Insertion of words into pairs of twin binary search trees.

Reading a word left to right, each letter is simultaneously leaf-inserted
into a left binary search tree and root-inserted into a right binary
search tree.  The resulting pair is the P-symbol; the recording of the
right tree's creation order is the Q-symbol, a decreasing tree.  Two
words are baxter-congruent exactly when their P-symbols agree, and the
unlabeled P-symbol shapes of permutations are exactly the twin pairs:
equal size, complementary canopies.

A twin pair here is a plain ``(left_shape, right_shape)`` tuple of
unlabeled trees.  :func:`p_shape` builds it from the same insertion
arrays as :func:`p_symbol`, without labeling and then unlabeling a
second copy.  It builds each distinct subtree of the pair once, so equal
subtrees of a shape are one object; trees are values all the same, and
subtrees compare by value, never by identity.

A class, the permutations of one P-symbol shape, is the weak-order interval
between its greedy extremes; :func:`class_of_pair` walks it at O(n) per cover.
The extremes and the Baxter representative are greedy walks of one order
on the labels, so none of them lists a class.
"""

from __future__ import annotations

from bisect import bisect, insort
from functools import lru_cache

from .errors import InternalInvariantError
from .trees import (
    LNode,
    Node,
    canopies_complementary,
    canopy,
    infix_edges,
    pair_str,
    remember_canopy,
)
from .words import check_word


def _leaf_insertion(keyed, backward):
    """Child arrays of the search tree made by leaf-inserting the
    positions ``0..n-1`` of a word left to right, or right to left when
    ``backward``; ``keyed`` lists the positions in key order.

    Position ``i`` has the key ``(w[i], i)``.  A new key hangs under
    whichever of its in-order neighbours among the keys already inserted
    came later: it becomes that predecessor's right child or that
    successor's left child.  Left to right the later neighbour is the
    larger position, right to left the smaller one.  The neighbours are
    found by deleting the positions from the key-ordered list in reverse
    insertion order, so each costs O(1).  That list links positions
    through ``before`` and ``after``, whose slot n holds the end mark.
    It is written -1 left to right (index -1 is slot n) and n right to
    left, so the end mark never came later.  The first position inserted is the
    root and is never deleted.  Returns ``(left, right)``, indexed by
    position, where n stands for no child.
    """
    n = len(keyed)
    end = n if backward else -1
    before = [end] * (n + 1)
    after = [end] * (n + 1)
    for i, j in zip(keyed, keyed[1:]):
        after[i] = j
        before[j] = i
    left = [n] * n
    right = [n] * n
    for i in range(n - 1) if backward else range(n - 1, 0, -1):
        p, s = before[i], after[i]
        after[p] = s
        before[s] = p
        if (p > s) != backward:  # p came later
            right[p] = i
        else:
            left[s] = i
    return left, right


def _freeze(steps, children, labels, shapes=None):
    """Build the tree from child arrays, children before parents (a child
    is always inserted after its parent): ``LNode``s labeled by
    ``labels``, or unlabeled ``Node``s when ``labels`` is None.

    Unlabeled trees are hash-consed through ``shapes``: a list of the
    distinct subtrees built so far, headed by ``None``, and a dict from
    the list indices of a subtree's two children to its own.  A node is made
    only when no equal subtree was made before, so equal subtrees are one
    object, also across the two trees of a pair that share ``shapes``.
    The keys are small ints, so a lookup never hashes a tree.
    """
    left, right = children
    # ``tuple.__new__`` skips the NamedTuple constructor's Python frame
    new = tuple.__new__
    if labels is None:
        nodes, numbers = shapes
        put = numbers.setdefault
        scale = 2 * len(left) + 1  # above every index of a pair's subtrees
        index = [0] * (len(left) + 1)  # by position; the end mark is None
        fresh = len(nodes)  # the index of the next new subtree
        for i in reversed(steps):
            a, b = index[left[i]], index[right[i]]
            k = put(a * scale + b, fresh)
            if k == fresh:
                nodes.append(new(Node, (nodes[a], nodes[b])))
                fresh += 1
            index[i] = k
        return nodes[index[steps[0]]] if steps else None
    built = [None] * (len(left) + 1)
    for i in reversed(steps):
        built[i] = new(LNode, (labels[i], built[left[i]], built[right[i]]))
    return built[steps[0]] if steps else None


@lru_cache(maxsize=1)
def _insertion_passes(w):
    """``(keyed, forward, backward)`` for the checked word ``w``: its
    positions in key order, from one stable sort, and the child arrays of
    its leaf insertion left to right and right to left (which equals root
    insertion left to right).  One entry is kept, so that
    :func:`p_symbol`, :func:`q_symbol` and :func:`p_shape` on the same
    word share the sort and the two passes."""
    keyed = sorted(range(len(w)), key=w.__getitem__)  # stable: ties by position
    return keyed, _leaf_insertion(keyed, False), _leaf_insertion(keyed, True)


def _twin_trees(passes, labels):
    """The two trees of a word from its insertion ``passes``.  Unlabeled,
    they share one table (:func:`_freeze`), which is dropped on return: it
    has one entry per distinct subtree, at most twice the word's length."""
    keyed, left, right = passes
    forward = range(len(keyed))
    shapes = None if labels is not None else ([None], {})
    return (_freeze(forward, left, labels, shapes),
            _freeze(forward[::-1], right, labels, shapes))


def _canopy(keyed, right) -> str:
    """The canopy of an inserted tree, read off its right-child array in
    key order: bit k is 1 exactly when the k-th node has a right child."""
    n = len(keyed)
    return "".join(["0" if right[i] == n else "1" for i in keyed[:-1]])


def p_symbol(u):
    """The pair (left BST by leaf insertion, right BST by root insertion).

    Letter ``i`` of ``u`` has the key ``(u[i], i)``.  The left tree
    leaf-inserts the keys left to right.  Root insertion gives the same
    tree as leaf-inserting right to left; in that pass the earlier
    position is the smaller key, so ties go left.  Each new key hangs
    under whichever of its in-order neighbours among the keys already
    inserted came later.  One stable sort puts the keys in order for
    both passes; each pass then costs O(n).  All of it is iterative, so
    deep words need no raised recursion limit.

    >>> from .trees import ltree_str
    >>> left, right = p_symbol((2, 3, 1))
    >>> ltree_str(left), ltree_str(right)
    ('(2 (1 . .) (3 . .))', '(1 . (3 (2 . .) .))')
    """
    w = check_word(u)
    return _twin_trees(_insertion_passes(w), w)


def q_symbol(u):
    """The decreasing tree recording when each right-tree node was made.

    Root insertion moves nodes around but never re-creates them; node
    number k of the Q-symbol sits where the letter inserted at step k
    ended up.  It is the right tree of :func:`p_symbol`, from the same
    right-to-left pass, labeled by position instead of letter.

    >>> from .trees import ltree_str
    >>> ltree_str(q_symbol((1, 2)))
    '(2 (1 . .) .)'
    """
    w = check_word(u)
    backward = range(len(w))[::-1]
    return _freeze(backward, _insertion_passes(w)[2], range(1, len(w) + 1))


def is_twin_pair(pair) -> bool:
    """Equal sizes and complementary canopies (vacuous below size 2).

    A tree of n >= 1 nodes has a canopy of n - 1 bits, so complementary
    canopies have equal sizes.
    """
    left, right = pair
    if left is None or right is None:
        return left is right
    return canopies_complementary(canopy(left), canopy(right))


def check_twin_pair(pair):
    """Return ``pair`` if it is a twin pair; raise ``ValueError`` if not."""
    if not is_twin_pair(pair):
        raise ValueError(f"not a twin pair: {pair_str(pair)}")
    return pair


@lru_cache(maxsize=8192)  # `bx verify insertion --max-n 7` asks for 5,913 words
def _shape(w):
    """The twin pair of the checked word ``w``, checked to be one: the
    canopies are read off the insertion arrays (:func:`_canopy`) and
    handed to :func:`~baxter.trees.canopy`'s memo, so that a caller
    asking for them next does not walk the trees again."""
    passes = _insertion_passes(w)
    out = _twin_trees(passes, None)
    keyed, (_, forward_right), (_, backward_right) = passes
    canopies = _canopy(keyed, forward_right), _canopy(keyed, backward_right)
    if not canopies_complementary(*canopies):
        raise InternalInvariantError(
            f"insertion produced non-complementary canopies: {pair_str(out)}"
        )
    if w:  # the leaf has no canopy
        for t, text in zip(out, canopies):
            remember_canopy(t, text)
    return out


def p_shape(u):
    """Unlabeled shape of the P-symbol of ``u``, a twin pair, from the
    same insertion passes as :func:`p_symbol`.

    ``u`` is checked before the cache is looked up, on hits too, and the
    cache is keyed by the checked word: ``(True, 2)`` raises
    ``ValueError`` even once ``(1, 2)`` is cached, and a list finds the
    entry of its tuple.  The two trees share their equal subtrees (each
    is built once), so a cached pair keeps one node per distinct subtree.
    Subtrees compare by value (``==``), never by identity.  On a cache
    miss, the canopies read off the insertion arrays go to
    :func:`~baxter.trees.canopy`'s identity memo, so asking for the new
    trees' canopies next costs no walk.

    >>> p_shape([2, 1]) == p_shape((2, 1))
    True
    """
    return _shape(check_word(u))


p_shape.cache_info, p_shape.cache_clear = _shape.cache_info, _shape.cache_clear


def _greedy_walk(n, covers, pick):
    """The linear extension of the order on 1..n whose covers ``(a, b)``
    put a before b that places, at each step, the ready value (its
    predecessors all placed) at index ``pick(ready, placed)`` of the
    sorted list of ready values."""
    succs = [[] for _ in range(n + 1)]
    waiting = [0] * (n + 1)
    for a, b in covers:
        succs[a].append(b)
        waiting[b] += 1
    ready = [v for v in range(1, n + 1) if not waiting[v]]
    order = []
    while ready:
        order.append(ready.pop(pick(ready, order)))
        for w in succs[order[-1]]:
            waiting[w] -= 1
            if not waiting[w]:
                insort(ready, w)
    return tuple(order)


def _class_order(pair):
    """The order whose linear extensions are ``pair``'s class, on both
    trees' infix labels 1..n: ``(n, covers, right-tree edges)``.  Its
    covers put left-tree parents before their children and right-tree
    children before their parents."""
    n, covers = infix_edges(check_twin_pair(pair)[0])
    edges = infix_edges(pair[1])[1]
    return n, covers + [(child, parent) for parent, child in edges], edges


@lru_cache(maxsize=4096)  # `bx verify all --max-n 7` asks for 2,620 pairs
def _extremes(pair):
    """``(min_perm, max_perm)`` of ``pair``'s class: the lexicographically
    least and greatest linear extensions of its class order, whose greedy
    walks place the least (greatest) ready value at each step."""
    n, covers, _ = _class_order(pair)
    return (_greedy_walk(n, covers, lambda ready, placed: 0),
            _greedy_walk(n, covers, lambda ready, placed: -1))


def _interval(lo, hi) -> frozenset:
    """The right weak-order interval [lo, hi], for ``lo <= hi``: walked up
    from ``lo`` by swapping adjacent ascents a < b that ``hi`` inverts,
    an O(1) test by ``hi``'s positions, at O(n) per swap kept.  Built in
    sorted order, so that the set iterates the same whatever the walk."""
    where = {v: i for i, v in enumerate(hi)}
    seen, todo = {lo}, [lo]
    while todo:
        p = todo.pop()
        for i in range(len(p) - 1):
            if p[i] < p[i + 1] and where[p[i + 1]] < where[p[i]]:
                q = p[:i] + (p[i + 1], p[i]) + p[i + 2:]
                if q not in seen:
                    seen.add(q)
                    todo.append(q)
    return frozenset(sorted(seen))


@lru_cache(maxsize=4096)  # sized as `_extremes`
def class_of_pair(pair) -> frozenset:
    """All permutations of P-symbol shape ``pair``: [min_perm, max_perm].

    >>> sorted(class_of_pair(p_shape((2, 1, 4, 3))))
    [(2, 1, 4, 3), (2, 4, 1, 3)]
    """
    return _interval(*_extremes(pair))


def baxter_representative(pair) -> tuple:
    """The unique Baxter (2-41-3 and 3-14-2 avoiding) member of the class.

    A greedy walk of the class order, as for the extremes, so no class
    is listed.  The first value is the only ready one, the left tree's
    root.  After value x comes the nearest ready value on the side of
    x's parent in the right tree: the least ready value above x if that
    parent is greater, the greatest below x if not, and the nearest on
    the other side when that side has none.  The right tree's root comes
    last, so every earlier x has a parent.

    >>> baxter_representative(p_shape((2, 4, 1, 3)))
    (2, 1, 4, 3)
    """
    n, covers, edges = _class_order(pair)
    parent = [0] * (n + 1)
    for p, child in edges:
        parent[child] = p

    def pick(ready, placed):
        if not placed:
            return 0
        x = placed[-1]
        i = bisect(ready, x)  # ready[:i] lie below x, ready[i:] above
        return i if i == 0 or (parent[x] > x and i < len(ready)) else i - 1

    return _greedy_walk(n, covers, pick)


def min_perm(pair) -> tuple:
    """The weak-order least member of the class.

    Classes are intervals of the right weak order, which the
    lexicographic order refines, so this is the lex-least member: the
    greedy one, found without walking the class.

    >>> min_perm(p_shape((5, 2, 7, 3, 6, 4, 1)))
    (5, 2, 3, 7, 6, 4, 1)
    """
    return _extremes(pair)[0]


def max_perm(pair) -> tuple:
    """The weak-order greatest member of the class.

    >>> max_perm(p_shape((5, 2, 7, 3, 6, 4, 1)))
    (5, 7, 6, 2, 3, 4, 1)
    """
    return _extremes(pair)[1]
