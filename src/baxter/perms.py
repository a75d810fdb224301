"""Permutations in one-line notation, as tuples of values 1..n.

The right weak (permutohedron) order is handled through co-inversion
sets: ``(i, j)`` with ``i < j`` is a co-inversion of ``sigma`` when the
value ``j`` appears before the value ``i``.  Covers swap an adjacent
ascent; the order is co-inversion-set inclusion; joins close the union
of co-inversion sets under transitivity.  Reversing a permutation
complements its co-inversion set, which turns the order upside down, so
a meet is the reversed join of the reversals: it closes the union of
the complemented sets.  The order, joins and meets run on one bit-mask
row of co-inversions per value, and meets on the complement rows: one
helper closes the union of two permutations' rows in one pass and
rebuilds the permutation by popcount, in O(n^2) int operations and with
no sets, the same work for a join and a meet.  It is memoized on the
rows it closes (1024 entries): a sweep of joins or meets closes few
distinct sets of rows.

The rows of a permutation and their complements are validated and built
once per process, by the memo :func:`_rows` (an ``lru_cache`` bounded at
2048 entries, so a sweep over S_6 keeps every operand's rows).  Its keys
compare by value:
``(1.0, 2.0)``, ``(True, 2)`` and ``(1, 2)`` share one entry, and the
rows are built from ``int`` letters, so the answer does not depend on
which spelling reached the cache first.  Inputs that are not
permutations raise ``ValueError`` and are never stored.

Also here: the Baxter vincular-pattern test, which scans the adjacent
pairs once with the letters before and after each pair kept sorted, and
connectedness (indecomposability).
"""

from __future__ import annotations

from bisect import bisect, bisect_left, insort
from functools import lru_cache
from operator import eq, or_

from .words import check_permutation


def inverse(sigma) -> tuple:
    """The inverse permutation.

    >>> inverse((3, 1, 2))
    (2, 3, 1)
    >>> inverse((2, 4, 1, 3))
    (3, 1, 4, 2)
    """
    s = check_permutation(sigma)
    inv = [0] * len(s)
    for pos, val in enumerate(s, start=1):
        inv[val - 1] = pos
    return tuple(inv)


@lru_cache(maxsize=2048)
def _rows(s: tuple) -> tuple:
    """The co-inversion rows of the permutation tuple ``s`` and their
    complements: bit ``j - 1`` of ``rows[i - 1]`` is set when ``i < j``
    and ``j`` comes before ``i``, and of ``complements[i - 1]`` when
    ``i < j`` and ``i`` comes first.

    ``s`` is checked by :func:`~baxter.words.check_permutation`, on a
    cache miss only; hits are found by value, so equal tuples of other
    numeric types share the entry, which is built from ``int`` letters.

    >>> [[bin(row) for row in part] for part in _rows((3, 1, 2))]
    [['0b100', '0b100', '0b0'], ['0b10', '0b0', '0b0']]
    """
    check_permutation(s)
    rows = [0] * len(s)
    complements = [0] * len(s)
    seen = 0
    full = (1 << len(s)) - 1
    for v in map(int, s):
        # x >> v << v keeps the values above v
        rows[v - 1] = seen >> v << v
        complements[v - 1] = full >> v << v & ~seen
        seen |= 1 << (v - 1)
    return tuple(rows), tuple(complements)


def _same_size(sigma, nu):
    """The memo entries of :func:`_rows` of two permutations of the same
    size, looked up in one frame."""
    s = tuple(sigma)
    try:
        a = _rows(s)
        s = tuple(nu)  # from here on, errors are about ``nu``
        b = _rows(s)
    except TypeError:
        # an unhashable letter: report it as check_permutation does
        check_permutation(s)
        raise
    if len(a[0]) != len(b[0]):
        raise ValueError("sizes differ")
    return a, b


def permutohedron_leq(sigma, nu) -> bool:
    """Right weak order: co-inversion-set inclusion.

    >>> permutohedron_leq((2, 1, 3), (2, 3, 1))
    True
    >>> permutohedron_leq((2, 1, 3), (1, 3, 2))
    False
    """
    (a, _), (b, _) = _same_size(sigma, nu)
    return all(map(eq, map(or_, a, b), b))


def permutohedron_covers(sigma) -> set:
    """The permutations covering ``sigma``: swap any adjacent ascent.

    >>> sorted(permutohedron_covers((1, 2, 3)))
    [(1, 3, 2), (2, 1, 3)]
    """
    s = check_permutation(sigma)
    out = set()
    for i in range(len(s) - 1):
        if s[i] < s[i + 1]:
            out.add(s[:i] + (s[i + 1], s[i]) + s[i + 2 :])
    return out


# Joins and meets of many pairs close few distinct sets of rows: the
# 14,400 ordered pairs of S_5 give 357 for joins and 357 for meets, and
# (a, b) shares its rows with (b, a).
@lru_cache(maxsize=1024)
def _closed_permutation(rows: tuple) -> tuple:
    """The permutation whose co-inversion rows are the transitive
    closure of the tuple ``rows``.

    The rows are closed in one pass from the largest value ``v = n``
    down: row ``v`` takes in the rows of the values it holds, which are
    larger and so closed already.  A row taken in holds its own closure,
    so its bits need not be visited again.  Then ``v`` is inserted at
    index popcount(row ``v``) among the values above it, since exactly
    those in its row come first.
    """
    closed = list(rows)
    result = []
    for i in range(len(closed) - 1, -1, -1):
        row = bits = closed[i]
        while bits:
            low = bits & -bits
            above = closed[low.bit_length() - 1]
            row |= above
            bits &= ~(low | above)
        closed[i] = row
        result.insert(row.bit_count(), i + 1)
    result = tuple(result)
    if _rows(result)[0] != tuple(closed):
        raise RuntimeError("closed co-inversion set is not realizable")
    return result


def weak_order_join(sigma, nu) -> tuple:
    """Least upper bound in the right weak order: the join's co-inversion
    set is the transitive closure of the union of the two sets.

    >>> weak_order_join((2, 1, 3), (2, 1, 3))
    (2, 1, 3)
    >>> weak_order_join((2, 1, 3), (1, 3, 2))
    (3, 2, 1)
    """
    (a, _), (b, _) = _same_size(sigma, nu)
    return _closed_permutation(tuple(map(or_, a, b)))


def weak_order_meet(sigma, nu) -> tuple:
    """Greatest lower bound in the right weak order.

    The reversal of a permutation has the complemented co-inversion set,
    so the meet is the reversal of the join of the reversals: it closes
    the union of the two complement sets, by the same pass as
    :func:`weak_order_join`.

    >>> weak_order_meet((2, 1, 3), (1, 3, 2))
    (1, 2, 3)
    >>> weak_order_meet((3, 1, 2), (2, 3, 1))
    (1, 2, 3)
    """
    (_, a), (_, b) = _same_size(sigma, nu)
    return _closed_permutation(tuple(map(or_, a, b)))[::-1]


def is_baxter(sigma) -> bool:
    """True iff ``sigma`` avoids the vincular patterns 2-41-3 and 3-14-2.

    A hit is a subword at positions p1 < p2 < p2+1 < p4 whose middle pair
    is adjacent and whose standardization is 2413 or 3142.  Only letters
    strictly between the middle pair matter.  At a descent ``b > c``,
    2-41-3 occurs iff the least earlier letter in ``(c, b)`` is below the
    greatest later letter in ``(c, b)``; at an ascent ``b < c``, 3-14-2
    occurs iff the greatest earlier letter in ``(b, c)`` is above the
    least later letter in ``(b, c)``.  The earlier and the later letters
    are kept as two sorted lists, so each of those letters is found by
    ``bisect``; after each pair, ``b`` moves into the earlier list and
    the letter after ``c`` leaves the later one.  That is O(n log n)
    comparisons, but each insertion into or deletion from a list shifts
    its tail in memory, so the bytes moved stay O(n^2), and the shifts
    set the cost from about 100,000 letters on.

    >>> is_baxter((4, 3, 6, 9, 7, 5, 1, 2, 8))
    True
    >>> is_baxter((2, 4, 1, 3))
    False
    """
    s = check_permutation(sigma)
    earlier, later = [], sorted(s[2:])
    for p in range(len(s) - 1):
        b, c = s[p], s[p + 1]
        if b > c:  # pattern 2413: c < a < d < b
            i = bisect(earlier, c)
            if i < len(earlier) and earlier[i] < b:
                j = bisect_left(later, b)
                if j and later[j - 1] > earlier[i]:
                    return False
        else:  # pattern 3142: b < d < a < c
            i = bisect_left(earlier, c)
            if i and earlier[i - 1] > b:
                j = bisect(later, b)
                if j < len(later) and later[j] < earlier[i - 1]:
                    return False
        insort(earlier, b)
        if later:
            del later[bisect_left(later, s[p + 2])]
    return True


def is_connected(sigma) -> bool:
    """True iff ``sigma`` is not empty and no proper prefix of length
    k >= 1 is a permutation of {1..k}: the empty permutation is not
    connected, as the series 1 - 1/B(z) has no constant term.

    >>> is_connected((2, 4, 1, 3))
    True
    >>> is_connected((2, 1, 3))
    False
    >>> is_connected(())
    False
    """
    s = check_permutation(sigma)
    top = 0
    for k in range(1, len(s)):
        top = max(top, s[k - 1])
        if top == k:
            return False
    return bool(s)
