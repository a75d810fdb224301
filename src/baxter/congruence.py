"""Rewriting congruences on words: baxter, sylvester, and #-sylvester.

Each congruence is generated by swaps of one adjacent pair of letters,
allowed only in the presence of witness letters elsewhere in the word:

* ``baxter``: swap adjacent letters x, y (a = min, d = max, a < d) when
  some earlier letter c and some later letter b satisfy a <= b < c <= d,
  or when some earlier b and later c satisfy a < b <= c < d.
* ``sylvester``: swap adjacent x, y (a = min, c = max, a < c) when some
  later letter b satisfies a <= b < c.
* ``sylvester_sharp``: the mirror-complement rule: swap when some
  earlier letter b satisfies a < b <= c.

Swaps are symmetric, so each generates an equivalence on anagrams; the
class of a word is its closure under these rewrites.
"""

from __future__ import annotations

from .words import check_word

KINDS = ("baxter", "sylvester", "sylvester_sharp")


def _check_kind(kind):
    if kind not in KINDS:
        raise ValueError(f"unknown congruence kind {kind!r}; expected one of {KINDS}")


def _baxter_swap_ok(before, a, d, after):
    if a >= d:
        return False
    if any(a <= b < c <= d for c in before for b in after):
        return True
    return any(a < b <= c < d for b in before for c in after)


def adjacent_rewrites(u, kind: str) -> set:
    """All words reachable from ``u`` by one witnessed adjacent swap.

    >>> sorted(adjacent_rewrites((1, 3, 2), "sylvester"))
    [(3, 1, 2)]
    >>> (5, 2, 3, 7, 6, 4, 1) in adjacent_rewrites((5, 2, 7, 3, 6, 4, 1), "baxter")
    True
    """
    w = check_word(u)
    _check_kind(kind)
    out = set()
    for i in range(len(w) - 1):
        x, y = w[i], w[i + 1]
        if x == y:
            continue
        lo, hi = min(x, y), max(x, y)
        before, after = w[:i], w[i + 2 :]
        if kind == "baxter":
            ok = _baxter_swap_ok(before, lo, hi, after)
        elif kind == "sylvester":
            ok = any(lo <= b < hi for b in after)
        else:
            ok = any(lo < b <= hi for b in before)
        if ok:
            out.add(w[:i] + (y, x) + w[i + 2 :])
    return out


def congruence_class(u, kind: str) -> frozenset:
    """The full rewriting class of ``u`` (breadth-first closure).

    >>> sorted(congruence_class((1, 3, 2), "sylvester"))
    [(1, 3, 2), (3, 1, 2)]
    """
    w = check_word(u)
    _check_kind(kind)
    seen = {w}
    frontier = [w]
    while frontier:
        new = []
        for v in frontier:
            for r in adjacent_rewrites(v, kind):
                if r not in seen:
                    seen.add(r)
                    new.append(r)
        frontier = new
    return frozenset(seen)

