"""Words over the ordered alphabet of positive integers 1 < 2 < 3 < ...

A word is a tuple of letters, each an ``int >= 1``; a permutation is a
word in which every letter of {1..n} appears exactly once.  This module
holds the letter-level operations everything else is built on: the one
permutation check, standardization, evaluation, restriction to a letter
interval, the reverse-complement (Schuetzenberger) transform, shuffles,
and the shifted shuffle of permutations.
"""

from __future__ import annotations

from collections import Counter


def check_word(u) -> tuple:
    """Validate and normalize ``u`` to a tuple of letters >= 1."""
    w = tuple(u)
    for a in w:
        # the common case first; int subclasses other than bool (an
        # ``IntEnum`` letter, say) pass the full test below
        if type(a) is int and a >= 1:
            continue
        if not isinstance(a, int) or isinstance(a, bool) or a < 1:
            raise ValueError(f"letters must be integers >= 1, got {a!r}")
    return w


def is_permutation(u) -> bool:
    """True iff ``u`` is a permutation of {1..n} in one-line notation.

    >>> is_permutation((3, 1, 2))
    True
    >>> is_permutation((1, 1, 2))
    False
    """
    w = tuple(u)
    return sorted(w) == list(range(1, len(w) + 1))


def check_permutation(sigma) -> tuple:
    """``sigma`` as a tuple; ``ValueError`` unless it is a permutation."""
    s = tuple(sigma)
    if not is_permutation(s):
        raise ValueError(f"not a permutation: {s}")
    return s


def standardize(u) -> tuple:
    """The standardized permutation of ``u``.

    Equal letters are ranked left to right, so ``std(u)[i] < std(u)[j]``
    for ``i < j`` exactly when ``u[i] <= u[j]``.

    >>> standardize((3, 1, 4, 2, 5, 7, 4, 2, 3))
    (4, 1, 6, 2, 8, 9, 7, 3, 5)
    >>> standardize(())
    ()
    """
    w = check_word(u)
    order = sorted(range(len(w)), key=w.__getitem__)  # stable: ties by index
    std = [0] * len(w)
    for val, i in enumerate(order, start=1):
        std[i] = val
    return tuple(std)


def evaluation(u) -> tuple:
    """Letter multiplicities up to the largest letter present.

    >>> evaluation((3, 1, 3, 3))
    (1, 0, 3)
    >>> evaluation(())
    ()
    """
    w = check_word(u)
    if not w:
        return ()
    counts = [0] * max(w)
    for a in w:
        counts[a - 1] += 1
    return tuple(counts)


def restrict(u, lo: int, hi: int) -> tuple:
    """The subword of letters in the interval [lo, hi], order preserved.

    >>> restrict((5, 2, 7, 3, 6, 4, 1), 2, 4)
    (2, 3, 4)
    """
    if lo > hi:
        raise ValueError(f"empty interval: lo={lo} > hi={hi}")
    w = check_word(u)
    return tuple(a for a in w if lo <= a <= hi)


def schuetzenberger(u) -> tuple:
    """Reverse ``u`` and complement each letter against max(u) + 1.

    An involution on words whose smallest letter is 1.

    >>> schuetzenberger((5, 3, 1, 1, 5, 2))
    (4, 1, 5, 5, 3, 1)
    >>> schuetzenberger(())
    ()
    """
    w = check_word(u)
    if not w:
        return ()
    m = max(w) + 1
    return tuple(m - a for a in reversed(w))


def _interleavings(a: tuple, b: tuple) -> list:
    """Every interleaving of the tuples ``a`` and ``b``, once per way of
    carving its positions into an ``a``-part and a ``b``-part.

    Built prefix by prefix: after the first ``i`` letters of ``a``,
    ``row[j]`` holds the interleavings of ``a[:i]`` and ``b[:j]``, and
    each step extends every one of them by a single letter.

    >>> sorted(_interleavings((1, 2), (3,)))
    [(1, 2, 3), (1, 3, 2), (3, 1, 2)]
    """
    singles = [(y,) for y in b]
    row = [[b[:j]] for j in range(len(b) + 1)]
    for x in a:
        x = (x,)
        prev, row = row, [[w + x for w in row[0]]]
        for j, y in enumerate(singles, 1):
            row.append([w + x for w in prev[j]] + [w + y for w in row[j - 1]])
    return row[-1]


def shuffle(u, v) -> Counter:
    """Multiset of all interleavings of ``u`` and ``v``.

    The result counts each interleaving once per way of carving its
    positions into a ``u``-part and a ``v``-part, so the multiplicities
    sum to C(|u|+|v|, |u|).

    >>> sorted(shuffle((1, 2), (3,)).items())
    [((1, 2, 3), 1), ((1, 3, 2), 1), ((3, 1, 2), 1)]
    >>> shuffle((1,), (1,))
    Counter({(1, 1): 2})
    """
    return Counter(_interleavings(check_word(u), check_word(v)))


def shifted_shuffle(sigma, nu) -> set:
    """All interleavings of ``sigma`` with ``nu`` shifted up by |sigma|.

    Both arguments must be permutations; the result is a set of
    permutations of size |sigma| + |nu| (shifting makes letters disjoint,
    so no interleaving repeats).

    >>> sorted(shifted_shuffle((1, 2), (2, 1)))[:2]
    [(1, 2, 4, 3), (1, 4, 2, 3)]
    >>> len(shifted_shuffle((1, 2), (2, 1)))
    6
    """
    s, t = check_permutation(sigma), check_permutation(nu)
    shifted = tuple(a + len(s) for a in t)
    return set(_interleavings(s, shifted))


def word_str(u) -> str:
    """Canonical text form: compact digits when all letters are <= 9,
    otherwise space-separated integers.

    >>> word_str((5, 2, 7, 3, 6, 4, 1))
    '5273641'
    >>> word_str((12, 3))
    '12 3'
    >>> word_str(())
    'e'
    """
    w = check_word(u)
    if not w:
        return "e"
    if all(a <= 9 for a in w):
        return "".join(str(a) for a in w)
    return " ".join(str(a) for a in w)


def parse_word(text: str) -> tuple:
    """Parse a word from text.

    Whitespace- or comma-separated integers always work; a bare digit
    string of letters 1-9 is read one letter per digit, so ``"5273641"``
    is the word (5, 2, 7, 3, 6, 4, 1).

    >>> parse_word("5 2 7 3 6 4 1") == parse_word("5273641")
    True
    >>> parse_word("12, 3")
    (12, 3)
    >>> parse_word("e")
    ()
    """
    if text.strip() == "e":
        return ()
    parts = text.replace(",", " ").split()
    if not parts:
        raise ValueError("empty word text")
    if len(parts) == 1 and parts[0].isdecimal() and len(parts[0]) > 1:
        if "0" not in parts[0]:
            return check_word(int(c) for c in parts[0])
        # a 0 digit cannot be a letter; fall through to integer parsing
    try:
        letters = [int(p) for p in parts]
    except ValueError:
        at = 0
        for p in parts:  # report the first token that int() rejects
            at = text.index(p, at)
            try:
                int(p)
            except ValueError:
                raise ValueError(f"not an integer: {p!r} (at position {at})") from None
            at += len(p)
    return check_word(letters)
