import itertools
from functools import cmp_to_key

import pytest
from hypothesis import given, settings, strategies as st

from baxter.perms import (
    _closed_permutation,
    _rows,
    check_permutation,
    inverse,
    is_baxter,
    is_connected,
    permutohedron_covers,
    permutohedron_leq,
    weak_order_join,
    weak_order_meet,
)
from baxter.verify import _is_baxter_scan, co_inversions


def all_perms(n):
    return [tuple(p) for p in itertools.permutations(range(1, n + 1))]


def _transitive_closure(pairs):
    """Close a co-inversion set: (i,j) and (j,k) present force (i,k)."""
    closed = set(pairs)
    changed = True
    while changed:
        changed = False
        by_low = {}
        for i, j in closed:
            by_low.setdefault(i, set()).add(j)
        for i, j in list(closed):
            for k in by_low.get(j, ()):
                if (i, k) not in closed:
                    closed.add((i, k))
                    changed = True
    return closed


def _from_co_inversions(n, pairs) -> tuple:
    """The permutation whose co-inversion set is ``pairs`` (must exist)."""

    def precedes(a, b):
        if a == b:
            return 0
        i, j = min(a, b), max(a, b)
        first = j if (i, j) in pairs else i
        return -1 if a == first else 1

    return tuple(sorted(range(1, n + 1), key=cmp_to_key(precedes)))


def oracle_join(s, t):
    """The weak-order join by closing the union of co-inversion sets."""
    pairs = _transitive_closure(co_inversions(s) | co_inversions(t))
    result = _from_co_inversions(len(s), pairs)
    assert co_inversions(result) == pairs
    return result


def oracle_meet(s, t):
    n = len(s)
    comp = lambda p: tuple(n + 1 - a for a in p)
    return comp(oracle_join(comp(s), comp(t)))


def test_check_permutation_rejects_non_permutations():
    assert check_permutation((2, 1, 3)) == (2, 1, 3)
    with pytest.raises(ValueError):
        check_permutation((1, 2, 2))
    with pytest.raises(ValueError):
        check_permutation((0, 1))


def test_co_inversions_examples():
    assert co_inversions((1, 2, 3)) == frozenset()
    assert co_inversions((3, 1, 2)) == frozenset({(1, 3), (2, 3)})
    assert co_inversions((2, 1)) == frozenset({(1, 2)})


def test_inverse():
    assert inverse((2, 4, 1, 3)) == (3, 1, 4, 2)
    assert inverse((1,)) == (1,)
    for p in all_perms(4):
        assert inverse(inverse(p)) == p


def test_permutohedron_leq_is_co_inversion_containment():
    assert permutohedron_leq((1, 2, 3), (3, 2, 1))
    assert permutohedron_leq((2, 1, 3), (1, 3, 2)) is False
    assert permutohedron_leq((1, 3, 2), (2, 1, 3)) is False
    for n in range(6):
        for s, t in itertools.product(all_perms(n), repeat=2):
            assert permutohedron_leq(s, t) == (co_inversions(s) <= co_inversions(t))


def test_permutohedron_covers_swap_one_ascent():
    assert set(permutohedron_covers((1, 2, 3))) == {(2, 1, 3), (1, 3, 2)}
    assert not permutohedron_covers((3, 2, 1))
    for p in all_perms(4):
        for c in permutohedron_covers(p):
            assert len(co_inversions(c)) == len(co_inversions(p)) + 1


def test_weak_order_join_and_meet_examples():
    # transitive closure forces the pair (1, 3) into the join, so the join
    # of these two is the full reversal, not the coordinatewise union
    assert weak_order_join((2, 1, 3), (1, 3, 2)) == (3, 2, 1)
    assert weak_order_meet((2, 1, 3), (1, 3, 2)) == (1, 2, 3)
    assert weak_order_join((2, 1, 3), (2, 1, 3)) == (2, 1, 3)


def test_weak_order_join_and_meet_match_the_closure_oracle():
    for n in range(6):
        for s, t in itertools.product(all_perms(n), repeat=2):
            assert weak_order_join(s, t) == oracle_join(s, t), (s, t)
            assert weak_order_meet(s, t) == oracle_meet(s, t), (s, t)


@st.composite
def perm_pairs(draw):
    n = draw(st.integers(6, 12))
    perm = st.permutations(range(1, n + 1)).map(tuple)
    return draw(perm), draw(perm)


@settings(max_examples=200, deadline=None)
@given(perm_pairs())
def test_weak_order_join_and_meet_match_the_closure_oracle_on_larger_pairs(pair):
    s, t = pair
    assert weak_order_join(s, t) == oracle_join(s, t)
    assert weak_order_meet(s, t) == oracle_meet(s, t)


def test_weak_order_rejects_bad_input():
    for op in (permutohedron_leq, weak_order_join, weak_order_meet):
        with pytest.raises(ValueError, match="sizes differ"):
            op((1, 2), (1, 2, 3))
        with pytest.raises(ValueError, match="not a permutation"):
            op((1, 1), (1, 2))


def test_weak_order_bounds_are_exact():
    perms = all_perms(4)
    for s, t in itertools.product(perms, repeat=2):
        j = weak_order_join(s, t)
        m = weak_order_meet(s, t)
        assert permutohedron_leq(s, j) and permutohedron_leq(t, j)
        assert permutohedron_leq(m, s) and permutohedron_leq(m, t)
        for u in perms:
            if permutohedron_leq(s, u) and permutohedron_leq(t, u):
                assert permutohedron_leq(j, u)
            if permutohedron_leq(u, s) and permutohedron_leq(u, t):
                assert permutohedron_leq(u, m)


def _weak_order_answers(s, t):
    """leq, join and meet of one pair, or the error each raises."""
    out = []
    for op in (permutohedron_leq, weak_order_join, weak_order_meet):
        try:
            result = op(s, t)
        except ValueError as exc:
            result = str(exc)
        else:
            if isinstance(result, tuple):
                assert all(type(v) is int for v in result)
        out.append(result)
    return out


def test_rows_memo_answers_the_same_cold_and_warm():
    pairs = [(s, t) for n in range(5) for s, t in itertools.product(all_perms(n), repeat=2)]
    cold = []
    for s, t in pairs:
        _rows.cache_clear()
        cold.append(_weak_order_answers(s, t))
    warm = [_weak_order_answers(s, t) for s, t in pairs]
    assert _rows.cache_info().hits > 0
    assert cold == warm


def test_rows_memo_keys_by_value():
    cases = [
        ((1.0, 2.0), (2, 1)),
        ((True, 2), (2, 1)),
        ([2, 1], (1, 2)),
        ((2, 1), [2.0, True]),
        ((1, 1), (1, 2)),
        ((1, 2), (1, 1)),
    ]
    for s, t in cases:
        _rows.cache_clear()
        cold = _weak_order_answers(s, t)
        _rows.cache_clear()
        for p in all_perms(2):  # warm up under the plain int spelling
            _rows(p)
        assert _weak_order_answers(s, t) == cold, (s, t)
        assert _weak_order_answers(tuple(map(int, s)), tuple(map(int, t))) == cold
    assert _weak_order_answers((1.0, 2.0), (2, 1)) == [True, (2, 1), (1, 2)]
    with pytest.raises(ValueError, match=r"not a permutation: \(1, 1\)"):
        permutohedron_leq((1, 1), (1, 2))
    assert _rows.cache_info().currsize == 2  # failed checks are not stored
    with pytest.raises(ValueError, match="not a permutation"):
        weak_order_join(([1],), ([1],))


def _meet_by_complementing_the_intersection(s, t):
    """The meet as it was first computed: close the complement of the
    intersection of the two co-inversion row sets, then reverse."""
    a, b = _rows(tuple(s))[0], _rows(tuple(t))[0]
    full = (1 << len(a)) - 1
    rows = tuple(full >> i << i & ~(x & y) for i, (x, y) in enumerate(zip(a, b), 1))
    return _closed_permutation(rows)[::-1]


def test_meet_on_complement_rows_matches_the_intersection_formula():
    for n in range(6):
        for s, t in itertools.product(all_perms(n), repeat=2):
            assert weak_order_meet(s, t) == _meet_by_complementing_the_intersection(s, t)


def test_complement_rows_are_the_rows_of_the_reversal():
    for n in range(6):
        for s in all_perms(n):
            assert _rows(s)[1] == _rows(s[::-1])[0]


def test_meet_keys_by_value_and_fails_as_the_join_does():
    for s, t in (((1.0, 2.0), (2, 1)), ((True, 2), (2, 1)), ((2, 1), [2.0, True])):
        for op in (weak_order_join, weak_order_meet):
            _rows.cache_clear()
            cold = op(s, t)
            assert all(type(v) is int for v in cold)
            assert op(tuple(map(int, s)), tuple(map(int, t))) == cold
    for op in (weak_order_join, weak_order_meet):
        with pytest.raises(ValueError, match=r"not a permutation: \(\[1\],\)"):
            op(([1],), ([1],))
        with pytest.raises(ValueError, match=r"not a permutation: \(\[1\],\)"):
            op((1,), ([1],))
        # the first argument is checked first
        with pytest.raises(ValueError, match=r"not a permutation: \(1, 1\)"):
            op((1, 1), ([1],))
        with pytest.raises(TypeError):
            op((1,), 1)


def test_rows_memo_is_bounded():
    assert _rows.cache_info().maxsize is not None


def test_closure_memo_is_bounded_and_shared_by_swapped_pairs():
    assert _closed_permutation.cache_info().maxsize is not None
    _closed_permutation.cache_clear()
    a, b = (2, 1, 4, 3, 5), (1, 3, 2, 5, 4)
    join = weak_order_join(a, b)
    assert weak_order_join(b, a) == join == weak_order_join(join, a)
    info = _closed_permutation.cache_info()
    assert (info.hits, info.misses) == (1, 2)


def test_closed_permutation_rejects_rows_no_permutation_has():
    with pytest.raises(RuntimeError, match="not realizable"):
        _closed_permutation((0b1,))


def test_is_baxter_small_cases():
    assert is_baxter((1,))
    assert is_baxter((2, 4, 1, 3)) is False
    assert is_baxter((3, 1, 4, 2)) is False
    assert is_baxter((4, 3, 6, 9, 7, 5, 1, 2, 8))
    assert is_baxter((4, 3, 6, 9, 7, 5, 1, 2, 8)[::-1])


def test_baxter_counts_up_to_five():
    counts = [sum(1 for p in all_perms(n) if is_baxter(p)) for n in range(6)]
    assert counts == [1, 1, 2, 6, 22, 92]


def test_is_baxter_matches_the_pattern_scan():
    for n in range(8):
        for p in all_perms(n):
            assert is_baxter(p) == _is_baxter_scan(p), p


def test_baxter_counts_match_oeis_a001181():
    counts = [sum(1 for p in all_perms(n) if is_baxter(p)) for n in range(1, 9)]
    assert counts == [1, 2, 6, 22, 92, 422, 2074, 10754]


def test_baxter_is_closed_under_inverse_and_reverse():
    for p in all_perms(5):
        b = is_baxter(p)
        assert is_baxter(inverse(p)) == b
        assert is_baxter(p[::-1]) == b


def test_is_connected():
    assert is_connected(()) is False
    assert is_connected((1,))
    assert is_connected((2, 1))
    assert is_connected((1, 2)) is False
    assert is_connected((2, 1, 3)) is False
    assert is_connected((3, 1, 2))
    counts = [sum(1 for p in all_perms(n) if is_connected(p)) for n in range(1, 6)]
    assert counts == [1, 1, 3, 13, 71]
