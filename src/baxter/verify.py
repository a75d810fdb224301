"""Bounded exhaustive verification suites, and the brute-force oracles.

Every structural claim the library relies on is re-checked here by brute
force at desk scale: weak-order laws, congruence compatibilities, the
insertion oracle, lattice axioms, Hopf closure, duality, and the
generating-series identities.  Each suite returns a list of
:class:`Check` records; the CLI surfaces them and the test suite asserts
them at the documented bounds.

It is also the one home of the brute-force oracles that the fast paths
are compared against and never call: the Catalan list of all tree
shapes, letter-by-letter leaf and root insertion (with the split of a
search tree at a letter), infix labelling and its inverse ``unlabel``,
the search-tree predicates, co-inversion sets, the O(n^3) pattern scan,
the position-set shuffle, the generating-series identities, and the maps
into and out of the permutation bases ``F`` and ``Fstar`` (P class sums
expanded, multiplied or cut there, and collected back into P) that the
class-sum rules of :mod:`baxter.hopf` are checked against.  The
embedding ``rho`` of the sylvester class sums is checked in P itself:
the product of two images is the image of the rotation interval between
the two grafts.
Only the CLI and the tests import this module, and only this module
imports the rewrite closure of :mod:`baxter.congruence`.

Suites take a single ``max_n`` knob and clamp it per check, so
``run(("all",), max_n=5)`` stays fast while larger bounds scale the same
code up.
"""

from __future__ import annotations

import itertools
import math
import random
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from . import hopf
from .congruence import KINDS, congruence_class
from .errors import NotInSubalgebraError
from .exactlin import RationalMatrix, kernel_basis, rank, rref
from .insertion import (
    baxter_representative,
    class_of_pair,
    is_twin_pair,
    max_perm,
    min_perm,
    p_shape,
    p_symbol,
    q_symbol,
)
from .lattice import (
    baxter_join,
    baxter_leq,
    baxter_meet,
    enumerate_tbt,
    hasse,
    positions,
)
from .perms import (
    check_permutation,
    inverse,
    is_baxter,
    permutohedron_covers,
    permutohedron_leq,
    weak_order_join,
    weak_order_meet,
)
from .trees import (
    LNode,
    Node,
    canopy,
    graft_over,
    graft_under,
    infix_edges,
    ltree_str,
    parse_labeled_tree,
    parse_tree,
    rotations,
    size as tree_size,
    tamari_interval,
    tamari_leq,
    tamari_vector,
    tree_str,
)
from .words import (
    _interleavings,
    evaluation,
    restrict,
    schuetzenberger,
    shifted_shuffle,
    shuffle,
    standardize,
)

BAXTER_COUNTS = (1, 1, 2, 6, 22, 92, 422, 2074)
CATALAN = (1, 1, 2, 5, 14, 42, 132, 429)
CONNECTED_COUNTS = (0, 1, 1, 3, 11, 47, 221, 1113)
TOTALLY_PRIMITIVE_DIMS = (0, 1, 0, 1, 4, 19)


class Check(NamedTuple):
    """One named pass/fail record with a short failure detail."""

    name: str
    ok: bool
    detail: str = ""


def _check(name, ok, detail=""):
    return Check(name, bool(ok), "" if ok else detail)


def all_perms(n):
    return [tuple(p) for p in itertools.permutations(range(1, n + 1))]


@lru_cache(maxsize=None)
def all_trees(n: int):
    """All shapes with ``n`` nodes, in a fixed order (Catalan many)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n == 0:
        return (None,)
    out = []
    for k in range(n):
        for left in all_trees(k):
            for right in all_trees(n - 1 - k):
                out.append(Node(left, right))
    return tuple(out)


def words_up_to(alphabet_size, max_len):
    out = []
    for length in range(1, max_len + 1):
        out.extend(
            tuple(w)
            for w in itertools.product(range(1, alphabet_size + 1), repeat=length)
        )
    return out


def baxter_number_formula(n: int) -> int:
    """Closed-form count of Baxter permutations of n."""
    if n == 0:
        return 1
    c = math.comb
    total = sum(
        Fraction(c(n + 1, k - 1) * c(n + 1, k) * c(n + 1, k + 1))
        for k in range(1, n + 1)
    )
    value = total / (c(n + 1, 1) * c(n + 1, 2))
    if value.denominator != 1:
        raise ArithmeticError(f"formula gave a non-integer for n={n}")
    return int(value)


def congruence_partition(words, kind):
    """Map each word of a rewrite-closed collection to a class id."""
    ids = {}
    next_id = 0
    for w in words:
        if w in ids:
            continue
        for member in congruence_class(w, kind):
            ids[member] = next_id
        next_id += 1
    return ids


# The suites partition the same few domains again and again: a pass of
# all of them asks for at most 23, the largest of 5,460 words.  The maps
# are shared, so callers read them and never write.
@lru_cache(maxsize=32)
def _word_partition(alphabet_size, max_len, kind):
    """:func:`congruence_partition` of ``words_up_to(alphabet_size, max_len)``."""
    return congruence_partition(words_up_to(alphabet_size, max_len), kind)


@lru_cache(maxsize=32)
def _perm_partition(n, kind):
    """:func:`congruence_partition` of the permutations of length ``n``."""
    return congruence_partition(all_perms(n), kind)


def partitions_equal(ids_a, ids_b) -> bool:
    """Whether two id maps over the same keys induce the same partition."""
    forward = {}
    backward = {}
    for key, a in ids_a.items():
        b = ids_b[key]
        if forward.setdefault(a, b) != b or backward.setdefault(b, a) != a:
            return False
    return True


# ---------------------------------------------------------------------------
# brute-force oracles: the paper's definitions, letter by letter


# Marks the stack of unlabel's walk: join the last two finished shapes
# into a Node.
_JOIN = object()


def unlabel(t):
    """Forget labels, keeping the shape.

    Iterative, so trees of any depth work at the default recursion limit.
    """
    done = []  # finished shapes, left before right
    todo = [t]  # subtrees still to visit, and _JOIN marks
    while todo:
        item = todo.pop()
        if item is _JOIN:
            right = done.pop()
            done[-1] = Node(done[-1], right)
        elif item is None:
            done.append(None)
        else:
            todo += (_JOIN, item.right, item.left)
    return done[0]


def _restrict_le(t, b):
    # keep nodes with label <= b; a dropped node sheds its right subtree too.
    # The kept nodes lie on one path; each takes the next kept one as its
    # new right subtree.
    kept = []
    while t is not None:
        if t.label <= b:
            kept.append(t)
            t = t.right
        else:
            t = t.left
    for node in reversed(kept):
        t = LNode(node.label, node.left, t)
    return t


def _restrict_gt(t, b):
    # keep nodes with label > b; a dropped node sheds its left subtree too
    kept = []
    while t is not None:
        if t.label > b:
            kept.append(t)
            t = t.left
        else:
            t = t.right
    for node in reversed(kept):
        t = LNode(node.label, t, node.right)
    return t


def restricted_trees(t, b: int):
    """Split a right binary search tree into its <= b and > b parts.

    Both parts keep the ancestor relations of the original tree.
    Iterative, so trees of any depth work at the default recursion limit.

    >>> t = parse_labeled_tree("(4 (1 (1 . .) (3 (2 . (3 . .)) .)) (5 . .))")
    >>> ltree_str(restricted_trees(t, 2)[0])
    '(1 (1 . .) (2 . .))'
    >>> ltree_str(restricted_trees(t, 2)[1])
    '(4 (3 (3 . .) .) (5 . .))'
    """
    return _restrict_le(t, b), _restrict_gt(t, b)


def leaf_insert(t, a: int, flavor: str):
    """Insert ``a`` as a new leaf of a labeled binary search tree.

    ``flavor="left"`` keeps strictly smaller letters in left subtrees
    (ties go right); ``flavor="right"`` keeps ties left.
    """
    if flavor not in ("left", "right"):
        raise ValueError(f"flavor must be 'left' or 'right', got {flavor!r}")
    if t is None:
        return LNode(a, None, None)
    go_left = a < t.label if flavor == "left" else a <= t.label
    if go_left:
        return LNode(t.label, leaf_insert(t.left, a, flavor), t.right)
    return LNode(t.label, t.left, leaf_insert(t.right, a, flavor))


def root_insert(t, a: int):
    """Insert ``a`` at the root of a right binary search tree.

    The old tree splits into its <= a and > a parts, which become the
    left and right subtrees of the new root.

    >>> ltree_str(root_insert(LNode(5, None, None), 4))
    '(4 . (5 . .))'
    """
    left, right = restricted_trees(t, a)
    return LNode(a, left, right)


def infix_labeling(t):
    """Label the nodes of a shape 1..n in infix order.

    >>> ltree_str(infix_labeling(parse_tree("((. .) (. .))")))
    '(2 (1 . .) (3 . .))'
    """
    counter = [0]

    def walk(node):
        if node is None:
            return None
        left = walk(node.left)
        counter[0] += 1
        label = counter[0]
        return LNode(label, left, walk(node.right))

    return walk(t)


def _bounds_ok(t, lo, hi, tie_left):
    # every label of t lies in [lo, hi]; None leaves that side open
    if t is None:
        return True
    a = t.label
    if (lo is not None and a < lo) or (hi is not None and a > hi):
        return False
    if tie_left:  # right flavor: left subtree <= a, right subtree > a
        return _bounds_ok(t.left, lo, a, tie_left) and _bounds_ok(
            t.right, a + 1, hi, tie_left
        )
    # left flavor: left subtree < a, right subtree >= a
    return _bounds_ok(t.left, lo, a - 1, tie_left) and _bounds_ok(
        t.right, a, hi, tie_left
    )


def is_left_bst(t) -> bool:
    """Left flavor: strictly smaller labels left, ties right."""
    return _bounds_ok(t, None, None, tie_left=False)


def is_right_bst(t) -> bool:
    """Right flavor: ties left, strictly larger labels right."""
    return _bounds_ok(t, None, None, tie_left=True)


def is_decreasing(t) -> bool:
    """Every child label is smaller than its parent label."""
    if t is None:
        return True
    for child in (t.left, t.right):
        if child is not None and child.label >= t.label:
            return False
    return is_decreasing(t.left) and is_decreasing(t.right)


def co_inversions(sigma) -> frozenset:
    """The set of pairs (i, j), i < j, whose larger value occurs first.

    >>> sorted(co_inversions((3, 1, 2)))
    [(1, 3), (2, 3)]
    """
    s = check_permutation(sigma)
    pos = {val: i for i, val in enumerate(s)}
    n = len(s)
    return frozenset(
        (i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1) if pos[i] > pos[j]
    )


def _is_baxter_scan(sigma) -> bool:
    """Brute-force O(n^3) scan for 2-41-3 and 3-14-2; the oracle for
    :func:`~baxter.perms.is_baxter`.

    >>> _is_baxter_scan((2, 4, 1, 3))
    False
    """
    s = check_permutation(sigma)
    n = len(s)
    for p2 in range(n - 1):
        b, c = s[p2], s[p2 + 1]
        for p1 in range(p2):
            a = s[p1]
            for p4 in range(p2 + 2, n):
                d = s[p4]
                if c < a < d < b:  # pattern 2413
                    return False
                if b < d < a < c:  # pattern 3142
                    return False
    return True


def _position_shuffle(u, v) -> Counter:
    """All interleavings of ``u`` and ``v``, one per set of positions that
    ``u`` takes; the oracle for :func:`~baxter.words.shuffle`.

    >>> sorted(_position_shuffle((1,), (1, 2)).items())
    [((1, 1, 2), 2), ((1, 2, 1), 1)]
    """
    n, m = len(u), len(v)
    out = Counter()
    for positions in itertools.combinations(range(n + m), n):
        word = [0] * (n + m)
        taken = set(positions)
        for letter, pos in zip(u, positions):
            word[pos] = letter
        rest = (i for i in range(n + m) if i not in taken)
        for letter, pos in zip(v, rest):
            word[pos] = letter
        out[tuple(word)] += 1
    return out


def _series_mul(a, b, nmax):
    out = [Fraction(0)] * (nmax + 1)
    for i, ai in enumerate(a[: nmax + 1]):
        if not ai:
            continue
        for j, bj in enumerate(b[: nmax + 1 - i]):
            out[i + j] += ai * bj
    return out


def _series_inv(a, nmax):
    if not a[0]:
        raise ValueError("series with zero constant term has no inverse")
    inv = [Fraction(0)] * (nmax + 1)
    inv[0] = 1 / Fraction(a[0])
    for k in range(1, nmax + 1):
        s = sum(Fraction(a[i]) * inv[k - i] for i in range(1, k + 1))
        inv[k] = -inv[0] * s
    return inv


def series_check(nmax: int) -> list:
    """Check the enumeration against the generating-series identities;
    return one line of text per failure.

    With B(z) the twin-pair series, connected pairs must match
    1 - 1/B(z) degree by degree up to ``nmax``, and totally primitive
    dimensions must match (B(z) - 1) / B(z)^2 up to degree 5 (the
    kernel computation is the costly part, so it stops there).  A
    negative ``nmax``, or one above the enumeration cap, raises
    ``ValueError`` from :func:`~baxter.hopf.baxter_numbers`.

    >>> series_check(3)
    []
    """
    b = [Fraction(v) for v in hopf.baxter_numbers(nmax)]
    inv_b = _series_inv(b, nmax)
    conn_series = [Fraction(int(k == 0)) - c for k, c in enumerate(inv_b)]
    bm1 = list(b)
    bm1[0] -= 1
    tot_series = _series_mul(bm1, _series_mul(inv_b, inv_b, nmax), nmax)
    failures = []
    for n in range(1, nmax + 1):
        conn = len(hopf.connected_pairs(n))
        if conn_series[n] != conn:
            failures.append(
                f"degree {n}: connected count {conn} != series value {conn_series[n]}"
            )
        if n <= 5:
            tot = len(hopf.totally_primitive_basis(n))
            if tot_series[n] != tot:
                failures.append(
                    f"degree {n}: totally primitive dimension {tot} "
                    f"!= series value {tot_series[n]}"
                )
    return failures


def _coinv_masks(n):
    """Perms of n with their co-inversion sets packed into bit masks."""
    index = {}
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            index[(i, j)] = len(index)
    masks = {}
    for p in all_perms(n):
        m = 0
        for pair in co_inversions(p):
            m |= 1 << index[pair]
        masks[p] = m
    return masks


def _order_sets(n, leq):
    """Up-sets and down-sets of an order on ``n`` elements as bit sets,
    from one ``leq(a, b)`` call per ordered pair of indices: bit ``b`` of
    ``above[a]`` and bit ``a`` of ``below[b]`` are set when a <= b."""
    above = [0] * n
    below = [0] * n
    for a in range(n):
        for b in range(n):
            if leq(a, b):
                above[a] |= 1 << b
                below[b] |= 1 << a
    return above, below


# ---------------------------------------------------------------------------
# the permutation algebra: the F and Fstar expansions that the class-sum
# rules of ``hopf`` are checked against

def f_element(sigma, coeff=1) -> hopf.Element:
    return hopf.Element("F", {check_permutation(sigma): coeff})


def fstar_element(sigma, coeff=1) -> hopf.Element:
    return hopf.Element("Fstar", {check_permutation(sigma): coeff})


def f_product(x: hopf.Element, y: hopf.Element) -> hopf.Element:
    """Product in the F basis: shifted shuffle, extended bilinearly."""
    if x.basis != "F" or y.basis != "F":
        raise ValueError("f_product needs F-basis elements")
    return hopf.element_product(x, y)


def _deconcatenate(x: hopf.Element, cuts) -> hopf.Element:
    """Split each term ``s`` of the F-element ``x`` at every ``i`` in
    ``cuts(s)`` and standardize both parts."""
    return hopf.linear(x, "F", ("F", "F"), lambda s: [
        ((standardize(s[:i]), standardize(s[i:])), 1) for i in cuts(s)])


def _after_max(s) -> int:
    """The cut just after the largest letter (0 for the empty word)."""
    return s.index(len(s)) + 1 if s else 0


def f_coproduct(x: hopf.Element) -> hopf.Element:
    """Coproduct in the F basis: deconcatenate and standardize each part."""
    return _deconcatenate(x, lambda s: range(len(s) + 1))


def f_coproduct_left(x: hopf.Element) -> hopf.Element:
    """Half coproduct: proper splits keeping the maximal letter left."""
    return _deconcatenate(x, lambda s: range(_after_max(s), len(s)))


def f_coproduct_right(x: hopf.Element) -> hopf.Element:
    """Half coproduct: proper splits keeping the maximal letter right."""
    return _deconcatenate(x, lambda s: range(1, _after_max(s)))


def _half_product(x: hopf.Element, y: hopf.Element, left: bool) -> hopf.Element:
    """The terms of each shifted shuffle of ``s`` and ``t`` whose last
    letter comes from ``s`` (``left``) or from the shifted ``t``.

    Only the last step of the shuffle is made: the rest of the factor
    that gives the last letter is interleaved with the whole other
    factor, and that letter is appended.  A pair with an empty factor on
    the asked side gives nothing.
    """
    if x.basis != "F" or y.basis != "F":
        raise ValueError("dendriform operations need F-basis elements")
    for s in itertools.chain(x.terms, y.terms):
        check_permutation(s)
    acc = []
    for s, c in x.terms.items():
        m = len(s)
        for t, d in y.terms.items():
            shifted = tuple(a + m for a in t)
            if left and s:
                head, tail, last = s[:-1], shifted, s[-1:]
            elif not left and t:
                head, tail, last = s, shifted[:-1], shifted[-1:]
            else:
                continue
            cd = c * d
            acc += [(w + last, cd) for w in _interleavings(head, tail)]
    return hopf.Element("F", acc)


def f_prec(x: hopf.Element, y: hopf.Element) -> hopf.Element:
    """Half product keeping the last letter on the left factor's side.

    ``F[s] < F[t]`` sums the interleavings of ``s[:-1]`` with ``t``
    shifted by ``|s|``, each followed by ``s[-1]``; it is 0 when ``s`` is
    empty.
    """
    return _half_product(x, y, left=True)


def f_succ(x: hopf.Element, y: hopf.Element) -> hopf.Element:
    """Half product keeping the last letter on the right factor's side.

    ``F[s] > F[t]`` sums the interleavings of ``s`` with ``t[:-1]``
    shifted by ``|s|``, each followed by ``t[-1] + |s|``; it is 0 when
    ``t`` is empty.  With :func:`f_prec` it splits :func:`f_product`.
    """
    return _half_product(x, y, left=False)


def theta(x: hopf.Element) -> hopf.Element:
    """Expand a P-element into the F basis (the subalgebra inclusion),
    each class sum into the F terms of its members."""
    return hopf.linear(x, "P", "F", lambda pair: [(s, 1) for s in class_of_pair(pair)])


def p_to_f(pair) -> hopf.Element:
    """Expand P over a twin pair as the class sum of F terms."""
    return theta(hopf.Element("P", {pair: 1}))


def collect(x: hopf.Element) -> hopf.Element:
    """Rewrite an F-element, or a tensor of F factors, in P, or raise.

    On a tensor, each factor of a term is collected into the P class of
    its shape.  Raises :class:`NotInSubalgebraError`, with ``pair`` set to
    the offending class key, when some class does not carry a constant
    coefficient.
    """
    tensor = not isinstance(x.basis, str)
    names = hopf._names(x.basis)
    if set(names) != {"F"}:
        raise ValueError("only F-basis elements collect into class sums")
    remaining = dict(x.terms)
    out = {}
    while remaining:
        s = next(iter(remaining))
        c = remaining[s]
        keys = tuple(p_shape(part) for part in (s if tensor else (s,)))
        key = keys if tensor else keys[0]
        for member in itertools.product(*(class_of_pair(k) for k in keys)):
            if remaining.pop(member if tensor else member[0], None) != c:
                text = " (x) ".join(hopf.key_str("P", k) for k in keys)
                raise NotInSubalgebraError(
                    f"coefficients not constant on the class of {text}", pair=key
                )
        out[key] = c
    return hopf.Element(("P",) * len(names) if tensor else "P", out)


def fstar_product(x: hopf.Element, y: hopf.Element) -> hopf.Element:
    """Product in Fstar: all ways to spread values over prefix/suffix
    standardizing to the factors (dual to deconcatenation)."""
    if x.basis != "Fstar" or y.basis != "Fstar":
        raise ValueError("fstar_product needs Fstar-basis elements")
    return hopf.element_product(x, y)


def fstar_coproduct(x: hopf.Element) -> hopf.Element:
    """Coproduct in Fstar: split by value intervals (dual to the shifted
    shuffle)."""
    return hopf.linear(x, "Fstar", ("Fstar", "Fstar"),
                       lambda s: [(cut, 1) for cut in hopf._value_cuts(s)])


def phi(x: hopf.Element) -> hopf.Element:
    """Project Fstar onto Pstar: each permutation maps to its class's
    dual basis element, coefficients adding."""
    return hopf.linear(x, "Fstar", "Pstar", lambda s: [(p_shape(s), 1)])


def psi(x: hopf.Element) -> hopf.Element:
    """The isomorphism F -> Fstar inverting each permutation."""
    return hopf.linear(x, "F", "Fstar", lambda s: [(inverse(s), 1)])


def phi_psi_theta(x: hopf.Element) -> hopf.Element:
    """The composite P -> F -> Fstar -> Pstar (not injective)."""
    return phi(psi(theta(x)))


# ---------------------------------------------------------------------------
# exactlin


def exactlin_suite(max_n=5):
    checks = []
    rng = random.Random(20240917)
    matrices = [
        RationalMatrix(2, 3, {(0, 0): Fraction(1), (0, 2): Fraction(2), (1, 1): Fraction(1)}),
        RationalMatrix(3, 3, {}),
        RationalMatrix(1, 1, {(0, 0): Fraction(5, 3)}),
    ]
    for _ in range(12):
        r = rng.randrange(1, 6)
        c = rng.randrange(1, 7)
        entries = {}
        for i in range(r):
            for j in range(c):
                if rng.random() < 0.6:
                    entries[(i, j)] = Fraction(rng.randrange(-3, 4), rng.randrange(1, 4))
        matrices.append(RationalMatrix(r, c, entries))
    rank_ok = True
    null_ok = True
    idem_ok = True
    for m in matrices:
        ker = kernel_basis(m)
        if rank(m) + len(ker) != m.cols:
            rank_ok = False
        for v in ker:
            for i in range(m.rows):
                if sum(m[i, j] * v[j] for j in range(m.cols)) != 0:
                    null_ok = False
        if rref(rref(m)) != rref(m):
            idem_ok = False
    checks.append(_check("rank plus nullity equals column count", rank_ok))
    checks.append(_check("kernel vectors are exact null vectors", null_ok))
    checks.append(_check("row reduction is idempotent", idem_ok))
    return checks


# ---------------------------------------------------------------------------
# words


def words_suite(max_n=5):
    checks = []
    length = min(max_n, 6)
    domain = words_up_to(4, length)

    std_ok = all(
        standardize(standardize(u)) == standardize(u)
        and sorted(standardize(u)) == list(range(1, len(u) + 1))
        for u in domain
    )
    checks.append(_check(
        f"standardize is idempotent onto permutations (len <= {length})", std_ok))

    count_ok = True
    small = words_up_to(3, min(max_n, 3))
    for u, v in itertools.product(small, repeat=2):
        total = sum(shuffle(u, v).values())
        if total != math.comb(len(u) + len(v), len(u)):
            count_ok = False
    checks.append(_check("shuffle multiplicities sum to the binomial count", count_ok))

    shifted_ok = True
    for a in range(1, min(max_n, 3) + 1):
        for b in range(1, min(max_n, 3) + 1):
            for s in all_perms(a):
                for t in all_perms(b):
                    if len(shifted_shuffle(s, t)) != math.comb(a + b, a):
                        shifted_ok = False
    checks.append(_check("shifted shuffle of permutations is multiplicity-free", shifted_ok))

    sch_ok = True
    for u in domain:
        if u and min(u) != 1:
            continue
        v = schuetzenberger(u)
        if len(v) != len(u) or schuetzenberger(v) != u:
            sch_ok = False
        ev_u, ev_v = evaluation(u), evaluation(v)
        m = max(u)
        for i in range(1, m + 1):
            left = ev_v[i - 1] if i <= len(ev_v) else 0
            right = ev_u[m - i] if m - i < len(ev_u) else 0
            if left != right:
                sch_ok = False
    checks.append(_check(
        "reverse-complement is an involution reversing the evaluation", sch_ok))

    std_sch_ok = all(
        standardize(schuetzenberger(u)) == schuetzenberger(standardize(u))
        for u in domain
    )
    checks.append(_check("standardize commutes with reverse-complement", std_sch_ok))
    return checks


# ---------------------------------------------------------------------------
# perms


def perms_suite(max_n=5):
    # Each relation is computed once per degree.  Joins and meets are kept
    # as permutation indices in flat lists of N^2 ints: a dict of result
    # tuples over the pairs of S_5 peaked about 3 MB higher, past the
    # benchmark's 10 % peak-memory bound.  The bounds are then tested on
    # up-set and down-set bit sets, in O(N^2) word operations.
    checks = []

    n = min(max_n, 6)
    perms = all_perms(n)
    index = {p: i for i, p in enumerate(perms)}
    # Up-sets in one pass in reverse rank order, so that the covers of p
    # are done before p.  A cover's own bit is set too: a cover that is
    # not above p then disagrees with permutohedron_leq.
    up = [0] * len(perms)
    for p in sorted(perms, key=lambda p: len(co_inversions(p)), reverse=True):
        i = index[p]
        up[i] = 1 << i
        for q in permutohedron_covers(p):
            up[i] |= 1 << index[q] | up[index[q]]
    closure_ok = all(
        permutohedron_leq(start, q) == bool(up[a] >> b & 1)
        for a, start in enumerate(perms)
        for b, q in enumerate(perms)
    )
    checks.append(_check(
        f"weak order equals the closure of adjacent-ascent covers (n <= {n})",
        closure_ok))

    n = min(max_n, 5)
    masks = _coinv_masks(n)
    perms = all_perms(n)
    index = {p: i for i, p in enumerate(perms)}
    mask_list = [masks[p] for p in perms]
    size = len(perms)
    above, below = _order_sets(
        size, lambda a, b: mask_list[a] & mask_list[b] == mask_list[a])
    joins = [-1] * (size * size)  # -1: the result is not a permutation of n
    meets = [-1] * (size * size)
    for a, pa in enumerate(perms):
        for b, pb in enumerate(perms):
            joins[a * size + b] = index.get(weak_order_join(pa, pb), -1)
            meets[a * size + b] = index.get(weak_order_meet(pa, pb), -1)
    lattice_ok = True
    for a in range(size):
        for b in range(size):
            j, m = joins[a * size + b], meets[a * size + b]
            if (j < 0 or m < 0
                    or above[j] != above[a] & above[b]
                    or below[m] != below[a] & below[b]
                    or joins[b * size + a] != j or meets[b * size + a] != m):
                lattice_ok = False
    checks.append(_check(
        f"weak-order join/meet are the least upper and greatest lower bounds "
        f"(n <= {n})", lattice_ok))

    n = min(max_n, 7)
    counts = tuple(sum(1 for p in all_perms(k) if is_baxter(p)) for k in range(n + 1))
    checks.append(_check(
        f"Baxter permutation counts match {BAXTER_COUNTS[:n + 1]} (n <= {n})",
        counts == BAXTER_COUNTS[:n + 1], f"got {counts}"))

    inv_ok = all(
        is_baxter(p) == is_baxter(inverse(p))
        for k in range(1, n + 1)
        for p in all_perms(k)
    )
    checks.append(_check(
        f"Baxter permutations are closed under inverse (n <= {n})", inv_ok))
    return checks


# ---------------------------------------------------------------------------
# trees


def _labels(t):
    if t is None:
        return []
    return _labels(t.left) + [t.label] + _labels(t.right)


def _rotated(t, right):
    """``(pivot, tree)`` for every right (``right`` true) or left rotation
    of ``t``: a node with a left child, or with a right child."""
    pivots = [p for p, c in infix_edges(t)[1] if (c < p) == right]
    return zip(pivots, rotations(t, pivots, right))


def trees_suite(max_n=5):
    checks = []

    n = min(max_n, 7)
    counts = tuple(len(all_trees(k)) for k in range(n + 1))
    checks.append(_check(
        f"tree counts match the Catalan numbers (n <= {n})",
        counts == CATALAN[:n + 1], f"got {counts}"))

    tamari_ok = True
    for k in range(n + 1):
        trees = all_trees(k)
        for t in trees:
            reach = {t}
            frontier = [t]
            while frontier:
                nxt = []
                for s in frontier:
                    for _, r in _rotated(s, True):
                        if r not in reach:
                            reach.add(r)
                            nxt.append(r)
                frontier = nxt
            for s in trees:
                if tamari_leq(t, s) != (s in reach):
                    tamari_ok = False
    checks.append(_check(
        f"vector comparison equals the right-rotation closure order (n <= {n})",
        tamari_ok))

    k = min(max_n, 6)
    mono_ok = True
    for m in range(1, k + 1):
        for t in all_trees(m):
            v = tamari_vector(t)
            for i, r in _rotated(t, True):
                w = tamari_vector(r)
                if any(wi < vi for vi, wi in zip(v, w)) or not w[i - 1] > v[i - 1]:
                    mono_ok = False
                if t not in {u for _, u in _rotated(r, False)}:
                    mono_ok = False
    checks.append(_check(
        f"right rotation strictly raises the pivot coordinate and inverts back "
        f"(n <= {k})", mono_ok))

    graft_ok = True
    for a in range(min(max_n, 4) + 1):
        for b in range(min(max_n, 4) + 1):
            for t0 in all_trees(a):
                for t1 in all_trees(b):
                    over = graft_over(t0, t1)
                    under = graft_under(t0, t1)
                    if tree_size(over) != a + b or tree_size(under) != a + b:
                        graft_ok = False
                    if a and b:
                        if canopy(over) != canopy(t0) + "0" + canopy(t1):
                            graft_ok = False
                        if canopy(under) != canopy(t0) + "1" + canopy(t1):
                            graft_ok = False
                    else:
                        other = t0 if b == 0 else t1
                        if over != other or under != other:
                            graft_ok = False
    checks.append(_check("grafting concatenates canopies around the junction leaf", graft_ok))

    rng = random.Random(7113)
    bst_ok = True
    restrict_ok = True
    for _ in range(200):
        word = tuple(rng.randrange(1, 6) for _ in range(rng.randrange(1, 9)))
        left = None
        right_leaf = None
        rooted = None
        for a in word:
            left = leaf_insert(left, a, "left")
            rooted = root_insert(rooted, a)
        for a in reversed(word):
            right_leaf = leaf_insert(right_leaf, a, "right")
        if not (is_left_bst(left) and is_right_bst(rooted) and is_right_bst(right_leaf)):
            bst_ok = False
        b = rng.randrange(1, 6)
        low, high = restricted_trees(left, b)
        if sorted(_labels(low) + _labels(high)) != sorted(word):
            restrict_ok = False
        if any(x > b for x in _labels(low)) or any(x <= b for x in _labels(high)):
            restrict_ok = False
    checks.append(_check("leaf and root insertion keep their search-tree invariants", bst_ok))
    checks.append(_check("restriction splits the label multiset at the threshold", restrict_ok))

    label_ok = True
    for m in range(min(max_n, 5) + 1):
        for t in all_trees(m):
            lt = infix_labeling(t)
            if unlabel(lt) != t or sorted(_labels(lt)) != list(range(1, m + 1)):
                label_ok = False
    checks.append(_check("infix labeling is a section of unlabeling", label_ok))
    return checks


# ---------------------------------------------------------------------------
# congruence


def congruence_suite(max_n=5):
    checks = []

    calibration = congruence_class((5, 2, 7, 3, 6, 4, 1), "baxter")
    expected = {
        (5, 2, 3, 7, 6, 4, 1), (5, 2, 7, 3, 6, 4, 1), (5, 2, 7, 6, 3, 4, 1),
        (5, 7, 2, 3, 6, 4, 1), (5, 7, 2, 6, 3, 4, 1), (5, 7, 6, 2, 3, 4, 1),
    }
    checks.append(_check(
        "rewrite closure of 5273641 is its six-element class",
        calibration == expected, f"got {sorted(calibration)}"))

    n = min(max_n, 6)
    inter_ok = True
    for k in range(1, n + 1):
        perms = all_perms(k)
        parts = {kind: _perm_partition(k, kind) for kind in KINDS}
        both = {p: (parts["sylvester"][p], parts["sylvester_sharp"][p]) for p in perms}
        if not partitions_equal(parts["baxter"], both):
            inter_ok = False
    word_len = min(max_n, 5)
    word_domain = words_up_to(3, word_len)
    parts = {kind: _word_partition(3, word_len, kind) for kind in KINDS}
    both = {
        w: (parts["sylvester"][w], parts["sylvester_sharp"][w]) for w in word_domain
    }
    if not partitions_equal(parts["baxter"], both):
        inter_ok = False
    checks.append(_check(
        f"the baxter relation is the intersection of the two sylvester relations "
        f"(perms n <= {n}, words len <= {word_len} over 3 letters)", inter_ok))

    grounded = [w for w in word_domain if w and min(w) == 1]
    sharp_images = {w: parts["sylvester"][schuetzenberger(w)] for w in grounded}
    sharp_ids = {w: parts["sylvester_sharp"][w] for w in grounded}
    checks.append(_check(
        "sharp-sylvester classes are reverse-complement images of sylvester classes",
        partitions_equal(sharp_ids, sharp_images)))

    length = min(max_n, 6)
    domain = words_up_to(4, length)
    baxter_ids = _word_partition(4, length, "baxter")
    groups = {}
    for w, cid in baxter_ids.items():
        groups.setdefault(cid, []).append(w)

    restrict_ok = True
    sch_ok = True
    for members in groups.values():
        rep = members[0]
        rep_sharp = schuetzenberger(rep)
        for other in members[1:]:
            for lo in range(1, 5):
                for hi in range(lo, 5):
                    ru, rv = restrict(rep, lo, hi), restrict(other, lo, hi)
                    if len(ru) != len(rv):
                        restrict_ok = False
                    elif ru and baxter_ids[ru] != baxter_ids[rv]:
                        restrict_ok = False
            if baxter_ids[rep_sharp] != baxter_ids[schuetzenberger(other)]:
                sch_ok = False
    checks.append(_check(
        f"interval restriction preserves equivalence (words len <= {length} "
        f"over 4 letters)", restrict_ok))
    checks.append(_check("reverse-complement maps classes to classes", sch_ok))

    signatures = {
        w: (evaluation(w), _perm_partition(len(w), "baxter")[standardize(w)])
        for w in domain
    }
    checks.append(_check(
        "equivalence is standardization plus evaluation equality",
        partitions_equal(baxter_ids, signatures)))

    cat_len = min(max_n, 4)
    cat_ok = True
    cat_ids = _word_partition(3, cat_len, "baxter")
    cat_groups = {}
    for w, cid in cat_ids.items():
        cat_groups.setdefault(cid, []).append(w)
    suffixes = words_up_to(3, min(3, cat_len))
    for members in cat_groups.values():
        rep = members[0]
        for other in members[1:]:
            for v in suffixes:
                if other + v not in congruence_class(rep + v, "baxter"):
                    cat_ok = False
                if v + other not in congruence_class(v + rep, "baxter"):
                    cat_ok = False
    checks.append(_check(
        f"equivalence is compatible with concatenation (len <= {cat_len} "
        f"over 3 letters)", cat_ok))
    return checks


# ---------------------------------------------------------------------------
# insertion


def insertion_suite(max_n=5):
    checks = []

    length = min(max_n, 6)
    domain = words_up_to(4, length)
    baxter_ids = _word_partition(4, length, "baxter")
    symbol_ids = {}
    by_symbol = {}
    for w in domain:
        symbol_ids[w] = by_symbol.setdefault(p_symbol(w), len(by_symbol))
    checks.append(_check(
        f"insertion equality decides rewrite equivalence (words len <= {length} "
        f"over 4 letters)", partitions_equal(baxter_ids, symbol_ids)))

    twin_ok = all(
        is_twin_pair((unlabel(p), unlabel(q))) for p, q in by_symbol
    )
    checks.append(_check("every insertion shape passes the twin canopy check", twin_ok))

    n = min(max_n, 7)
    lemma1_ok = True
    for w in domain + [p for k in range(1, n + 1) for p in all_perms(k)]:
        rooted = None
        for a in w:
            rooted = root_insert(rooted, a)
        leafed = None
        for a in reversed(w):
            leafed = leaf_insert(leafed, a, "right")
        if rooted != leafed:
            lemma1_ok = False
    checks.append(_check(
        f"root insertion equals right-to-left leaf insertion (n <= {n})", lemma1_ok))

    lemma2_ok = True
    for k in range(1, n + 1):
        for p in all_perms(k):
            t = None
            for a in p:
                t = leaf_insert(t, a, "left")
            coinv = co_inversions(p)
            expected = "".join(
                "0" if (i, i + 1) in coinv else "1" for i in range(1, k)
            )
            if canopy(unlabel(t)) != expected:
                lemma2_ok = False
    checks.append(_check(
        f"leaf orientations encode adjacent co-inversions (n <= {n})", lemma2_ok))

    inj_ok = True
    filter_ok = True
    unique_ok = True
    shapes = {}  # degree -> the brute-force classes, by shape
    for k in range(1, n + 1):
        perms = all_perms(k)
        if len({(p_symbol(p), q_symbol(p)) for p in perms}) != len(perms):
            inj_ok = False
        by_shape = shapes[k] = {}
        for p in perms:
            by_shape.setdefault(p_shape(p), set()).add(p)
        if set(by_shape) != set(enumerate_tbt(k)):
            filter_ok = False
        for j, members in by_shape.items():
            if class_of_pair(j) != frozenset(members):
                filter_ok = False
            baxters = [p for p in members if is_baxter(p)]
            if len(baxters) != 1 or baxter_representative(j) != baxters[0]:
                unique_ok = False
    checks.append(_check(
        f"the two recording trees separate permutations (n <= {n})", inj_ok))
    checks.append(_check(
        f"class enumeration agrees with brute-force shape filtering (n <= {n})",
        filter_ok))
    checks.append(_check(
        f"every class contains exactly one Baxter permutation (n <= {n})", unique_ok))

    m = min(max_n, 6)
    interval_ok = True
    for k in range(1, m + 1):
        masks = _coinv_masks(k)
        for j, members in shapes[k].items():
            lo, hi = masks[min_perm(j)], masks[max_perm(j)]
            interval = {
                p for p, mask in masks.items()
                if lo & mask == lo and mask & hi == mask
            }
            if interval != members:
                interval_ok = False
    checks.append(_check(
        f"each class is a weak-order interval between its extremes (n <= {m})",
        interval_ok))

    mono_ok = True
    for k in range(1, m + 1):
        for p in all_perms(k):
            up_p = max_perm(p_shape(p))
            down_p = min_perm(p_shape(p))
            for q in permutohedron_covers(p):
                if not permutohedron_leq(up_p, max_perm(p_shape(q))):
                    mono_ok = False
                if not permutohedron_leq(down_p, min_perm(p_shape(q))):
                    mono_ok = False
    checks.append(_check(
        f"class extremes are monotone along weak-order covers (n <= {m})", mono_ok))
    return checks


# ---------------------------------------------------------------------------
# lattice


def lattice_suite(max_n=5):
    # The baxter_leq matrix of each degree is built once, as up-set and
    # down-set bit sets indexed by pair position, and the order checks
    # below all read it: one call per ordered pair and degree.
    checks = []

    n = min(max_n, 7)
    counts = tuple(len(enumerate_tbt(k)) for k in range(n + 1))
    formula = tuple(baxter_number_formula(k) for k in range(n + 1))
    checks.append(_check(
        f"twin pair counts match the Baxter numbers and the closed formula (n <= {n})",
        counts == BAXTER_COUNTS[:n + 1] == formula,
        f"enumerated {counts}, formula {formula}"))

    m = min(max_n, 6)
    k = min(max_n, 5)
    orders = {}
    for d in range(1, m + 1):
        pairs = enumerate_tbt(d)
        above, below = _order_sets(
            len(pairs), lambda a, b: baxter_leq(pairs[a], pairs[b]))
        orders[d] = pairs, above, below

    consistent_ok = True
    for d in range(1, m + 1):
        for p in all_perms(d):
            jp = p_shape(p)
            for q in permutohedron_covers(p):
                if not baxter_leq(jp, p_shape(q)):
                    consistent_ok = False
    for d in range(1, k + 1):
        pairs, above, _ = orders[d]
        least = [min_perm(j) for j in pairs]
        for a in range(len(pairs)):
            for b in positions(above[a]):
                if not permutohedron_leq(least[a], least[b]):
                    consistent_ok = False
    checks.append(_check(
        f"the pair order is the image of the weak order (n <= {m})", consistent_ok))

    lattice_ok = True
    for d in range(1, k + 1):
        pairs, above, below = orders[d]
        idx = {j: i for i, j in enumerate(pairs)}
        for a, ja in enumerate(pairs):
            for b, jb in enumerate(pairs):
                mig = idx.get(baxter_meet(ja, jb))
                jig = idx.get(baxter_join(ja, jb))
                if mig is None or below[mig] != below[a] & below[b]:
                    lattice_ok = False
                if jig is None or above[jig] != above[a] & above[b]:
                    lattice_ok = False
    checks.append(_check(
        f"meet and join are the greatest lower and least upper bounds (n <= {k})",
        lattice_ok))

    bounds_ok = True
    for d in range(1, m + 1):
        everything = enumerate_tbt(d)
        bottom = p_shape(tuple(range(1, d + 1)))
        top = p_shape(tuple(range(d, 0, -1)))
        if not all(baxter_leq(bottom, j) and baxter_leq(j, top) for j in everything):
            bounds_ok = False
    checks.append(_check(
        f"identity and reverse-identity shapes bound the order (n <= {m})", bounds_ok))

    covers_ok = True
    for d in range(1, m + 1):
        _, above, _ = orders[d]
        for a, covers in enumerate(hasse(d)):
            strictly_above = above[a] & ~(1 << a)
            reduction = set()
            for b in positions(strictly_above):
                if not any(
                    above[c] >> b & 1
                    for c in positions(strictly_above & ~(1 << b))
                ):
                    reduction.add(b)
            targets = [k for k, _ in covers]
            if set(targets) != reduction or len(set(targets)) != len(targets):
                covers_ok = False
    checks.append(_check(
        f"cover moves match the transitive reduction exactly (n <= {m})", covers_ok))
    return checks


# ---------------------------------------------------------------------------
# hopf


def hopf_suite(max_n=5):
    checks = []
    deg = min(max_n, 6)
    pairs = {d: enumerate_tbt(d) for d in range(deg + 1)}

    goldens_ok = (
        f_product(f_element((1,)), f_element((1,)))
        == hopf.Element("F", {(1, 2): 1, (2, 1): 1})
        and f_coproduct(f_element((2, 1)))
        == hopf.Element(
            ("F", "F"), {((), (2, 1)): 1, ((1,), (1,)): 1, ((2, 1), ()): 1})
        and f_prec(f_element((1,)), f_element((1,)))
        == hopf.Element("F", {(2, 1): 1})
        and f_succ(f_element((1,)), f_element((1,)))
        == hopf.Element("F", {(1, 2): 1})
        and f_coproduct_left(f_element((2, 1)))
        == hopf.Element(("F", "F"), {((1,), (1,)): 1})
        and not f_coproduct_right(f_element((2, 1)))
        and p_to_f(p_shape((2, 1, 4, 3)))
        == hopf.Element("F", {(2, 1, 4, 3): 1, (2, 4, 1, 3): 1})
        and p_to_f(p_shape((5, 4, 2, 1, 6, 3)))
        == hopf.Element("F", {(5, 4, 2, 1, 6, 3): 1, (5, 4, 2, 6, 1, 3): 1,
                              (5, 4, 6, 2, 1, 3): 1})
    )
    checks.append(_check("fixed product, coproduct, and class-sum examples", goldens_ok))

    closure_ok = True
    coeff_ok = True
    formula_ok = True
    for d0 in range(deg + 1):
        for d1 in range(deg + 1 - d0):
            for j0 in pairs[d0]:
                for j1 in pairs[d1]:
                    try:
                        prod = hopf.p_product(j0, j1)
                    except Exception as exc:  # pragma: no cover - falsifies closure
                        checks.append(_check(
                            "products of class sums stay in the span", False,
                            repr(exc)))
                        return checks
                    if any(c != 1 for c in prod.terms.values()):
                        coeff_ok = False
                    union = set()
                    for s in class_of_pair(j0):
                        for t in class_of_pair(j1):
                            union.update(shifted_shuffle(s, t))
                    # closed iff it is the disjoint union of the classes it meets
                    shapes = {p_shape(w) for w in union}
                    if sum(len(class_of_pair(j)) for j in shapes) != len(union):
                        closure_ok = False
                    if shapes != prod.support():
                        formula_ok = False
                    hits = [w for w in union if is_baxter(w)]
                    if len(hits) != len(prod.terms):
                        formula_ok = False
    checks.append(_check(
        f"products of class sums stay in the span (total degree <= {deg})",
        closure_ok))
    checks.append(_check("product coefficients are all exactly 1", coeff_ok))
    checks.append(_check(
        "product support matches the Baxter members of the shuffle union",
        formula_ok))

    coassoc_ok = True
    counit_ok = True
    unit = (None, None)
    for d in range(deg + 1):
        for j in pairs[d]:
            delta = hopf.p_coproduct(j)
            left = hopf.linear(delta, ("P", "P"), ("P",) * 3, lambda ab: [
                ((a1, a2, ab[1]), c) for (a1, a2), c in hopf.p_coproduct(ab[0]).terms.items()])
            right = hopf.linear(delta, ("P", "P"), ("P",) * 3, lambda ab: [
                ((ab[0], b1, b2), c) for (b1, b2), c in hopf.p_coproduct(ab[1]).terms.items()])
            if left != right:
                coassoc_ok = False
            lhs = hopf.Element("P", {b: c for (a, b), c in delta.terms.items() if a == unit})
            rhs = hopf.Element("P", {a: c for (a, b), c in delta.terms.items() if b == unit})
            if lhs != hopf.p_element(j) or rhs != hopf.p_element(j):
                counit_ok = False
    checks.append(_check(f"the coproduct is coassociative (degree <= {deg})", coassoc_ok))
    checks.append(_check("counit laws hold on both sides", counit_ok))

    compat_ok = True
    for d0 in range(1, deg):
        for d1 in range(1, deg + 1 - d0):
            for j0 in pairs[d0]:
                for j1 in pairs[d1]:
                    lhs = hopf.linear(hopf.p_product(j0, j1), "P", ("P", "P"),
                                      lambda j: hopf.p_coproduct(j).terms.items())
                    rhs = hopf.element_product(hopf.p_coproduct(j0), hopf.p_coproduct(j1))
                    if lhs != rhs:
                        compat_ok = False
    checks.append(_check(
        f"coproduct of a product is the product of coproducts (total degree <= {deg})",
        compat_ok))

    graft_ok = True
    for d0 in range(deg + 1):
        for d1 in range(deg + 1 - d0):
            for j0 in pairs[d0]:
                for j1 in pairs[d1]:
                    over = hopf.pair_over(j0, j1)
                    under = hopf.pair_under(j0, j1)
                    if hopf.e_product(j0, j1) != hopf.Element("E", {over: 1}):
                        graft_ok = False
                    if hopf.h_product(j0, j1) != hopf.Element("H", {under: 1}):
                        graft_ok = False
                    for basis, graft in (("E", over), ("H", under)):
                        x0, x1, x01 = (hopf.order_sum_tables(basis, d)[0]
                                       for d in (d0, d1, d0 + d1))
                        if hopf.element_product(x0[j0], x1[j1]) != x01[graft]:
                            graft_ok = False
    checks.append(_check(
        f"order-sum bases are multiplicative along grafting (total degree <= {deg})",
        graft_ok))

    tables_ok = True
    for d in range(deg + 1):
        for name in ("E", "H"):
            tab, back_tab = hopf.order_sum_tables(name, d)
            for j in pairs[d]:
                back = hopf.linear(back_tab[j], name, "P", lambda k: tab[k].terms.items())
                if back != hopf.p_element(j):
                    tables_ok = False
    checks.append(_check("order-sum base changes are exact inverses", tables_ok))

    dend_deg = min(max_n, 5)
    last_ok = True
    dend_closed_ok = True
    split_ok = True
    for d in range(1, dend_deg + 1):
        for j in pairs[d]:
            if len({s[-1] for s in class_of_pair(j)}) != 1:
                last_ok = False
            x = theta(hopf.p_element(j))
            full = f_coproduct(x)
            halves = f_coproduct_left(x) + f_coproduct_right(x)
            ends = hopf.Element(
                ("F", "F"),
                [(((), s), c) for s, c in x.terms.items()]
                + [((s, ()), c) for s, c in x.terms.items()],
            )
            if full != halves + ends:
                split_ok = False
            try:
                collect(f_coproduct_left(x))
                collect(f_coproduct_right(x))
            except Exception:  # pragma: no cover - falsifies closure
                dend_closed_ok = False
    for d0 in range(1, dend_deg):
        for d1 in range(1, dend_deg + 1 - d0):
            for j0 in pairs[d0]:
                for j1 in pairs[d1]:
                    x = theta(hopf.p_element(j0))
                    y = theta(hopf.p_element(j1))
                    prec = f_prec(x, y)
                    succ = f_succ(x, y)
                    if prec + succ != f_product(x, y):
                        split_ok = False
                    try:
                        collect(prec)
                        collect(succ)
                    except Exception:  # pragma: no cover - falsifies closure
                        dend_closed_ok = False
    checks.append(_check(
        f"equivalent words end with the same letter (degree <= {dend_deg})", last_ok))
    checks.append(_check(
        "half products and half coproducts split the full operations", split_ok))
    checks.append(_check(
        f"class-sum spans are closed under the four half operations "
        f"(degree <= {dend_deg})", dend_closed_ok))

    iso_deg = min(max_n, 5)
    psi_ok = True
    for a in range(1, iso_deg):
        for b in range(1, iso_deg + 1 - a):
            for s in all_perms(a):
                for t in all_perms(b):
                    lhs = psi(f_product(f_element(s), f_element(t)))
                    rhs = fstar_product(
                        psi(f_element(s)), psi(f_element(t)))
                    if lhs != rhs:
                        psi_ok = False
    for a in range(1, iso_deg + 1):
        for s in all_perms(a):
            lhs = fstar_coproduct(psi(f_element(s)))
            tx = f_coproduct(f_element(s))
            rhs = hopf.linear(tx, ("F", "F"), ("Fstar", "Fstar"),
                              lambda uv: [((inverse(uv[0]), inverse(uv[1])), 1)])
            if lhs != rhs:
                psi_ok = False
    checks.append(_check(
        f"inversion exchanges shuffle with convolution and the two coproducts "
        f"(degree <= {iso_deg})", psi_ok))

    dual_deg = min(max_n, 4)
    rep_ok = True
    for d0 in range(1, dual_deg):
        for d1 in range(1, dual_deg + 1 - d0):
            for j0 in pairs[d0]:
                for j1 in pairs[d1]:
                    results = {
                        phi(fstar_product(
                            fstar_element(s), fstar_element(t)))
                        for s in class_of_pair(j0)
                        for t in class_of_pair(j1)
                    }
                    if results != {hopf.dual_product(j0, j1)}:
                        rep_ok = False
    for d in range(1, dual_deg + 1):
        for j in pairs[d]:
            results = set()
            for s in class_of_pair(j):
                tx = fstar_coproduct(fstar_element(s))
                results.add(hopf.linear(tx, ("Fstar", "Fstar"), ("Pstar", "Pstar"),
                                        lambda ab: [((p_shape(ab[0]), p_shape(ab[1])), 1)]))
            if results != {hopf.dual_coproduct(j)}:
                rep_ok = False
    checks.append(_check(
        f"quotient structure is independent of class representatives "
        f"(degree <= {dual_deg})", rep_ok))

    j2143 = p_shape((2, 1, 4, 3))
    j3142 = p_shape((3, 1, 4, 2))
    image = hopf.Element("Pstar", {j2143: 1, j3142: 1})
    collision_ok = (
        phi_psi_theta(hopf.p_element(j2143)) == image
        and phi_psi_theta(hopf.p_element(j3142)) == image
        and {inverse(s) for s in class_of_pair(j2143)} == {(2, 1, 4, 3), (3, 1, 4, 2)}
        and {inverse(s) for s in class_of_pair(j3142)} == {(2, 4, 1, 3), (3, 4, 1, 2)}
    )
    checks.append(_check(
        "the composite into the dual identifies the two crossing shapes",
        collision_ok))

    rho_deg = min(max_n, 4)
    rho_ok = True
    for d in range(1, rho_deg + 1):
        trees = sorted(all_trees(d), key=tree_str)
        cols = {j: i for i, j in enumerate(pairs[d])}
        entries = {}
        for r, t in enumerate(trees):
            for j, c in hopf.rho(t).terms.items():
                entries[(r, cols[j])] = Fraction(c)
        if rank(RationalMatrix(len(trees), len(cols), entries)) != len(trees):
            rho_ok = False
    mult_deg = min(max_n, 3)
    for a in range(1, mult_deg + 1):
        for b in range(1, mult_deg + 1):
            for t0 in all_trees(a):
                for t1 in all_trees(b):
                    interval = tamari_interval(graft_over(t0, t1), graft_under(t0, t1))
                    lhs = hopf.Element("P", [
                        term for t in interval for term in hopf.rho(t).terms.items()])
                    rhs = hopf.element_product(hopf.rho(t0), hopf.rho(t1))
                    if lhs != rhs:
                        rho_ok = False
    checks.append(_check(
        f"the tree-class embedding is injective (size <= {rho_deg}) and "
        f"multiplicative (sizes <= {mult_deg}+{mult_deg})", rho_ok))
    return checks


# ---------------------------------------------------------------------------
# series


def series_suite(max_n=5):
    checks = []
    n = min(max_n, 7)
    conn = tuple(len(hopf.connected_pairs(k)) for k in range(n + 1))
    checks.append(_check(
        f"connected pair counts match {CONNECTED_COUNTS[:n + 1]} (n <= {n})",
        conn == CONNECTED_COUNTS[:n + 1], f"got {conn}"))

    tp_n = min(max_n, 5)
    dims = tuple(len(hopf.totally_primitive_basis(k)) for k in range(tp_n + 1))
    checks.append(_check(
        f"totally primitive dimensions match {TOTALLY_PRIMITIVE_DIMS[:tp_n + 1]} "
        f"(n <= {tp_n})",
        dims == TOTALLY_PRIMITIVE_DIMS[:tp_n + 1], f"got {dims}"))

    if tp_n >= 3:
        basis3 = hopf.totally_primitive_basis(3)
        expected = hopf.p_element(p_shape((2, 3, 1))) - hopf.p_element(p_shape((1, 3, 2)))
        span_ok = False
        if len(basis3) == 1:
            scale = basis3[0].coeff(p_shape((2, 3, 1)))
            span_ok = scale != 0 and basis3[0] == scale * expected
        checks.append(_check(
            "the degree-3 kernel is spanned by the difference of the two "
            "non-sylvester shapes", span_ok))

    failures = series_check(n)
    checks.append(_check(
        f"counts match the reciprocal and ratio series degree by degree (n <= {n})",
        not failures, "; ".join(failures)))
    return checks


SUITES = {
    "exactlin": exactlin_suite,
    "words": words_suite,
    "perms": perms_suite,
    "trees": trees_suite,
    "congruence": congruence_suite,
    "insertion": insertion_suite,
    "lattice": lattice_suite,
    "hopf": hopf_suite,
    "series": series_suite,
}


def run(names=("all",), max_n=5):
    """Run the named suites (or all of them) at the given bound.

    Returns a list of (suite name, [Check]) pairs in execution order.
    """
    if isinstance(names, str):
        names = (names,)
    if max_n < 0:
        raise ValueError("max_n must be nonnegative")
    selected = list(SUITES) if "all" in names else list(names)
    for name in selected:
        if name not in SUITES:
            raise ValueError(
                f"unknown suite {name!r}; choose from {', '.join(SUITES)} or all")
    return [(name, SUITES[name](max_n)) for name in selected]
