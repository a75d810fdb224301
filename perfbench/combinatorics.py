"""Independent combinatorics used to make inputs and to check outputs.

Nothing here imports ``baxter``: inputs are generated and outputs are
checked without going through the library under test.  Every walk over
a tree is iterative, so checks work on trees deeper than the
interpreter's recursion limit.

Trees are any objects with ``left`` and ``right`` attributes, ``None``
being the leaf; the library's ``Node`` and ``LNode`` both qualify.
"""

from __future__ import annotations


def standardize(word):
    """Rank letters, breaking ties left to right (1-based)."""
    order = sorted(range(len(word)), key=lambda i: (word[i], i))
    std = [0] * len(word)
    for rank, i in enumerate(order, start=1):
        std[i] = rank
    return tuple(std)


def inorder(t):
    """Nodes of ``t`` in infix order."""
    out = []
    stack = []
    node = t
    while stack or node is not None:
        while node is not None:
            stack.append(node)
            node = node.left
        node = stack.pop()
        out.append(node)
        node = node.right
    return out


def tree_size(t):
    return len(inorder(t))


def canopy(t):
    """Leaf orientations left to right, first and last dropped: a leaf
    that is a left child reads 1, a right child reads 0."""
    bits = []
    for node in inorder(t):
        if node.left is None:
            bits.append("1")
        if node.right is None:
            bits.append("0")
    return "".join(bits[1:-1])


def is_twin_pair(pair, n):
    """Both trees have ``n`` nodes and complementary canopies."""
    left, right = pair
    if tree_size(left) != n or tree_size(right) != n:
        return False
    if n == 0:
        return True
    cl, cr = canopy(left), canopy(right)
    return len(cl) == len(cr) and all(a != b for a, b in zip(cl, cr))


def _parent_edges(t):
    """(parent, child) pairs of infix labels 1..n."""
    sizes = {}
    for node in reversed(_preorder(t)):
        sizes[id(node)] = 1 + _size_of(node.left, sizes) + _size_of(node.right, sizes)
    edges = []
    stack = [(t, 0, 0)]  # node, infix offset, parent label (0: root)
    while stack:
        node, offset, parent = stack.pop()
        if node is None:
            continue
        label = offset + _size_of(node.left, sizes) + 1
        if parent:
            edges.append((parent, label))
        stack.append((node.left, offset, label))
        stack.append((node.right, label, label))
    return edges


def _size_of(node, sizes):
    return 0 if node is None else sizes[id(node)]


def _preorder(t):
    out = []
    stack = [t]
    while stack:
        node = stack.pop()
        if node is not None:
            out.append(node)
            stack.append(node.right)
            stack.append(node.left)
    return out


def class_poset(pair):
    """Order relations a permutation of the class of ``pair`` obeys, as
    (earlier value, later value): left-tree parents precede their
    children, right-tree children precede their parents."""
    left, right = pair
    before = list(_parent_edges(left))
    before += [(child, parent) for parent, child in _parent_edges(right)]
    return before


def is_linear_extension(perm, relations):
    pos = {v: i for i, v in enumerate(perm)}
    return all(pos[a] < pos[b] for a, b in relations)


class ClassSizes:
    """Class sizes of twin pairs, counted as linear extensions of the
    class poset with a dynamic programme over order ideals."""

    def __init__(self):
        self._memo = {}

    def __call__(self, pair):
        size = self._memo.get(pair)
        if size is None:
            size = self._memo[pair] = self._count(pair)
        return size

    @staticmethod
    def _count(pair):
        n = tree_size(pair[0])
        preds = [0] * (n + 1)
        for a, b in class_poset(pair):
            preds[b] |= 1 << a
        ways = {0: 1}
        for _ in range(n):
            nxt = {}
            for mask, count in ways.items():
                for v in range(1, n + 1):
                    bit = 1 << v
                    if not mask & bit and preds[v] & mask == preds[v]:
                        nxt[mask | bit] = nxt.get(mask | bit, 0) + count
            ways = nxt
        return sum(ways.values())


def bst_shape(word, node):
    """Shape of the binary search tree built by leaf-inserting ``word``
    (smaller letters left, ties right), built with the ``node(left,
    right)`` constructor."""
    if not word:
        return None
    left, right = {}, {}
    root = 0
    for i in range(1, len(word)):
        j = root
        while True:
            side = left if word[i] < word[j] else right
            if j in side:
                j = side[j]
            else:
                side[j] = i
                break
    built = {}
    for i in reversed(_preorder_indices(root, left, right)):
        built[i] = node(built.get(left.get(i)), built.get(right.get(i)))
    return built[root]


def _preorder_indices(root, left, right):
    out = []
    stack = [root]
    while stack:
        i = stack.pop()
        out.append(i)
        if i in right:
            stack.append(right[i])
        if i in left:
            stack.append(left[i])
    return out


def twin_pair_of(perm, node):
    """The P-symbol shape of a permutation: leaf insertion left to right
    for the left tree; root insertion left to right, which for distinct
    letters is leaf insertion right to left, for the right tree."""
    return (bst_shape(perm, node), bst_shape(perm[::-1], node))


def tree_text(t):
    """Canonical ``(L R)`` text, as the library prints shapes."""
    parts = []
    stack = [t]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            parts.append(item)
        elif item is None:
            parts.append(".")
        else:
            stack.extend((")", item.right, " ", item.left, "("))
    return "".join(parts)


def pair_text(pair):
    return f"[ {tree_text(pair[0])} | {tree_text(pair[1])} ]"


def is_baxter(perm):
    """Avoidance of the vincular patterns 2-41-3 and 3-14-2, in O(n^2).

    For each adjacent pair (b, c) only the most permissive outer letter
    before it matters: the smallest a in (c, b) for a descent, the
    largest a in (b, c) for an ascent.
    """
    n = len(perm)
    for p in range(n - 1):
        b, c = perm[p], perm[p + 1]
        lo, hi = min(b, c), max(b, c)
        inside = [a for a in perm[:p] if lo < a < hi]
        if not inside:
            continue
        if b > c:  # 2-41-3: c < a < d < b
            a = min(inside)
            if any(a < d < b for d in perm[p + 2:]):
                return False
        else:  # 3-14-2: b < d < a < c
            a = max(inside)
            if any(b < d < a for d in perm[p + 2:]):
                return False
    return True


def separable(n, rng):
    """A random separable permutation of 1..n (these are all Baxter):
    blocks are merged pairwise by direct or skew sums."""
    blocks = [(1,) for _ in range(n)]
    while len(blocks) > 1:
        i = rng.randrange(len(blocks) - 1)
        a, b = blocks[i], blocks[i + 1]
        if rng.random() < 0.5:
            merged = a + tuple(x + len(a) for x in b)
        else:
            merged = tuple(x + len(b) for x in a) + b
        blocks[i:i + 2] = [merged]
    return blocks[0]

