import sys
from enum import IntEnum

import pytest
from hypothesis import given, strategies as st

from baxter import trees
from baxter.insertion import p_shape
from baxter.trees import (
    LNode,
    Node,
    ParseError,
    canopies_complementary,
    canopy,
    complement_canopy,
    graft_over,
    graft_under,
    infix_edges,
    left_rotate,
    ltree_str,
    pair_str,
    parse_labeled_tree,
    parse_pair,
    parse_tree,
    right_rotate,
    rotations,
    size,
    tamari_interval,
    tamari_leq,
    tamari_vector,
    tree_str,
)
from baxter.verify import (
    all_trees,
    infix_labeling,
    is_decreasing,
    is_left_bst,
    is_right_bst,
    leaf_insert,
    restricted_trees,
    root_insert,
    unlabel,
)

words_st = st.lists(st.integers(min_value=1, max_value=9), min_size=1, max_size=8)


def build_left(word):
    t = None
    for a in word:
        t = leaf_insert(t, a, "left")
    return t


def test_size_and_unlabel():
    t = parse_tree("((. .) (. .))")
    assert size(t) == 3
    lt = parse_labeled_tree("(2 (1 . .) (3 . .))")
    assert unlabel(lt) == t
    assert size(None) == 0


def test_deep_trees_parse_at_the_default_recursion_limit():
    n = 3000
    right = "(. " * n + "." + ")" * n
    left = "(" * n + "." + " .)" * n
    labeled = "".join(f"({k} . " for k in range(1, n + 1)) + "." + ")" * n
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)  # CPython's default
    try:
        for text in (right, left):
            t = parse_tree(text)
            assert size(t) == n
            assert tree_str(t) == text
        pair = parse_pair(f"[ {right} | {left} ]")
        assert [size(t) for t in pair] == [n, n]
        t = parse_labeled_tree(labeled)
        assert size(t) == n
        assert ltree_str(t) == labeled
    finally:
        sys.setrecursionlimit(limit)


def test_tree_str_round_trip_on_all_small_trees():
    for n in range(6):
        for t in all_trees(n):
            assert parse_tree(tree_str(t)) == t


def test_catalan_counts():
    assert [len(all_trees(n)) for n in range(7)] == [1, 1, 2, 5, 14, 42, 132]


def test_parse_errors_carry_positions():
    with pytest.raises(ParseError, match=r"position"):
        parse_tree("((. .) (. .)")
    with pytest.raises(ParseError):
        parse_tree("")
    with pytest.raises(ParseError):
        parse_tree("(. .) junk")
    with pytest.raises(ParseError):
        parse_pair("[ (. .) | ")


def test_pair_str_and_parse_pair():
    text = "[ (. (. .)) | ((. .) .) ]"
    pair = parse_pair(text)
    assert pair_str(pair) == text
    assert pair_str((None, None)) == "[ . | . ]"
    assert parse_pair("[ . | . ]") == (None, None)


def test_labeled_tree_round_trip():
    text = "(5 (4 (2 . (2 . .)) (4 . (4 . .))) (5 . .))"
    lt = parse_labeled_tree(text)
    assert ltree_str(lt) == text


class _Colour(IntEnum):
    RED = 1


class _Formatted:
    def __format__(self, spec):
        return "formatted"

    def __str__(self):
        return "str"


@pytest.mark.parametrize("a", [True, 0, -5, 10**30, _Colour.RED, 2049, _Formatted()])
def test_labels_print_as_f_strings_do(a):
    # An f-string formats each label with format(); str() and %s differ
    # for a type that defines __format__, such as IntEnum on Python 3.10.
    assert ltree_str(LNode(a, LNode(a, None, None), None)) == f"({a} ({a} . .) .)"


def test_graft_examples():
    leaf = Node(None, None)
    assert tree_str(graft_over(leaf, leaf)) == "((. .) .)"
    assert tree_str(graft_under(leaf, leaf)) == "(. (. .))"
    assert graft_over(None, leaf) == leaf
    assert graft_under(leaf, None) == leaf


def test_graft_concatenates_canopies():
    for a in range(1, 4):
        for b in range(1, 4):
            for t0 in all_trees(a):
                for t1 in all_trees(b):
                    assert canopy(graft_over(t0, t1)) == canopy(t0) + "0" + canopy(t1)
                    assert canopy(graft_under(t0, t1)) == canopy(t0) + "1" + canopy(t1)


def test_rotations_are_inverse_local_moves():
    t = parse_tree("((. .) .)")
    assert tree_str(right_rotate(t, 2)) == "(. (. .))"
    assert tree_str(left_rotate(parse_tree("(. (. .))"), 1)) == "((. .) .)"
    with pytest.raises(ValueError):
        right_rotate(parse_tree("(. (. .))"), 1)
    with pytest.raises(ValueError):
        left_rotate(parse_tree("((. .) .)"), 2)


def test_rotation_preserves_infix_order():
    for t in all_trees(5):
        for i in range(1, 6):
            try:
                r = right_rotate(t, i)
            except ValueError:
                continue
            assert size(r) == size(t)
            assert any(
                _try_left(r, j) == t for j in range(1, 6))


def test_rotations_of_deep_combs_at_the_default_recursion_limit():
    n = 2000
    left_comb = parse_tree("(" * n + "." + " .)" * n)
    right_comb = parse_tree("(. " * n + "." + ")" * n)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)  # CPython's default
    try:
        # the deepest pivots, about n nodes down, and the roots; deep trees
    # are compared by their text, since ``==`` on them recurses
        deep = right_rotate(left_comb, 2)
        assert tamari_vector(deep) == (1, 2) + (1,) * (n - 2)
        assert tree_str(left_rotate(deep, 1)) == tree_str(left_comb)
        deep = left_rotate(right_comb, n - 1)
        assert tamari_vector(deep) == tuple(range(1, n - 1)) + (n - 1, n - 1)
        assert tree_str(right_rotate(deep, n)) == tree_str(right_comb)
        top = right_rotate(left_comb, n)
        assert tamari_vector(top) == (1,) * (n - 1) + (n,)
        assert tree_str(left_rotate(top, n - 1)) == tree_str(left_comb)
        with pytest.raises(ValueError, match=f"node {n} has no right subtree"):
            left_rotate(left_comb, n)
        with pytest.raises(ValueError, match=f"infix index {n + 1} out of range"):
            right_rotate(right_comb, n + 1)
    finally:
        sys.setrecursionlimit(limit)


def _try_left(t, j):
    try:
        return left_rotate(t, j)
    except ValueError:
        return None


def test_canopy_examples():
    assert canopy(parse_tree("(. .)")) == ""
    assert canopy(parse_tree("((. .) .)")) == "0"
    assert canopy(parse_tree("(. (. .))")) == "1"
    assert canopy(parse_tree("(((. (. .)) (. (. .))) (. .))")) == "101101"
    with pytest.raises(ValueError):
        canopy(None)


def test_complement_canopy():
    assert complement_canopy("0110") == "1001"
    assert complement_canopy("") == ""
    left, right = canopy(parse_tree("((. .) .)")), canopy(parse_tree("(. (. .))"))
    assert canopies_complementary(left, right)
    assert not canopies_complementary(left, left)
    assert not canopies_complementary("0", "10")
    assert not canopies_complementary("0110", "1011")


def test_tamari_vector_bounds():
    # the left comb is the bottom, the right comb the top
    left_comb = parse_tree("(((. .) .) .)")
    right_comb = parse_tree("(. (. (. .)))")
    assert tamari_vector(left_comb) == (1, 1, 1)
    assert tamari_vector(right_comb) == (1, 2, 3)
    assert tamari_leq(left_comb, right_comb)
    assert not tamari_leq(right_comb, left_comb)


def test_tamari_leq_rejects_trees_of_different_sizes():
    with pytest.raises(ValueError, match="sizes differ"):
        tamari_leq(parse_tree("(. .)"), parse_tree("((. .) .)"))
    with pytest.raises(ValueError, match="sizes differ"):
        tamari_leq(None, parse_tree("(. .)"))


def test_tamari_leq_matches_rotation_closure_small():
    for n in range(1, 6):
        ts = all_trees(n)
        reach = {t: {t} for t in ts}
        frontier = {t: {t} for t in ts}
        while any(frontier.values()):
            for t in ts:
                new = set()
                for u in frontier[t]:
                    for i in range(1, n + 1):
                        try:
                            new.add(right_rotate(u, i))
                        except ValueError:
                            pass
                frontier[t] = new - reach[t]
                reach[t] |= new
        for s in ts:
            for t in ts:
                assert tamari_leq(s, t) == (t in reach[s])


def test_tamari_interval_matches_the_order_filter_small():
    for n in range(6):
        ts = all_trees(n)
        for lo in ts:
            for hi in ts:
                got = [tree_str(t) for t in tamari_interval(lo, hi)]
                assert len(got) == len(set(got))
                assert set(got) == {
                    tree_str(t) for t in ts if tamari_leq(lo, t) and tamari_leq(t, hi)}
                assert got[:1] == ([tree_str(lo)] if tamari_leq(lo, hi) else [])
    with pytest.raises(ValueError, match="sizes differ"):
        tamari_interval(parse_tree("(. .)"), parse_tree("((. .) .)"))


def _walked_vector(t):
    """The rotation vector by the recursive definition, with no memo."""
    if t is None:
        return ()
    left, right = _walked_vector(t.left), _walked_vector(t.right)
    first = left[0] if left else len(left) + 1
    return left + (first,) + tuple(x + len(left) + 1 for x in right)


def _interval_by_rotating_every_member(lo, hi):
    """The interval walk that rotates and walks every candidate tree."""
    if not tamari_leq(lo, hi):
        return []
    top = _walked_vector(hi)
    seen, out = {_walked_vector(lo)}, [lo]
    for t in out:
        for p, c in infix_edges(t)[1]:
            if c < p:
                u = right_rotate(t, p)
                v = _walked_vector(u)
                if v not in seen and all(a <= b for a, b in zip(v, top)):
                    seen.add(v)
                    out.append(u)
    return out


def test_tamari_interval_lists_the_members_in_the_rotating_walks_order():
    pairs = 0
    for n in range(7):
        ts = all_trees(n)
        for lo in ts:
            for hi in ts:
                pairs += 1
                got = list(map(tree_str, tamari_interval(lo, hi)))
                assert got == list(map(tree_str, _interval_by_rotating_every_member(lo, hi)))
    assert pairs == 19415


def test_tamari_interval_of_deep_combs_at_the_default_recursion_limit():
    n = 2000
    left_comb = parse_tree("(" * n + "." + " .)" * n)
    right_comb = parse_tree("(. " * n + "." + ")" * n)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)  # CPython's default
    try:
        assert tamari_interval(left_comb, left_comb) == [left_comb]
        assert tamari_interval(right_comb, right_comb) == [right_comb]
        assert tamari_interval(right_comb, left_comb) == []
    finally:
        sys.setrecursionlimit(limit)


def test_vector_memo_answers_the_same_cold_and_warm_and_is_bounded():
    forest = [t for n in range(8) for t in all_trees(n)]  # 626 trees
    assert len(forest) > trees._VECTOR_MEMO_ENTRIES
    trees._VECTOR_MEMO.clear()
    cold = [tamari_vector(t) for t in forest]
    assert len(trees._VECTOR_MEMO) <= trees._VECTOR_MEMO_ENTRIES
    warm = [tamari_vector(t) for t in reversed(forest)][::-1]
    assert cold == warm == [_walked_vector(t) for t in forest]
    assert len(trees._VECTOR_MEMO) <= trees._VECTOR_MEMO_ENTRIES
    # a hit answers from the memo: the same tuple object
    t = forest[-1]
    assert tamari_vector(t) is tamari_vector(t)


def test_vector_memo_skips_trees_above_its_size_bound():
    bound = trees._VECTOR_MEMO_NODES
    small = parse_tree("(" * bound + "." + " .)" * bound)
    big = parse_tree("(" * (bound + 1) + "." + " .)" * (bound + 1))
    trees._VECTOR_MEMO.clear()
    assert tamari_vector(big) == (1,) * (bound + 1)
    assert id(big) not in trees._VECTOR_MEMO
    assert tamari_vector(small) == (1,) * bound
    assert trees._VECTOR_MEMO[id(small)][0] is small


def test_vector_memo_tells_equal_deep_combs_apart_by_identity(monkeypatch):
    # ``==`` and ``hash`` on these recurse in C past the default limit,
    # so the memo must touch neither: it keys by id and checks ``is``.
    n = 2000
    text = "(" * n + "." + " .)" * n
    first, second = parse_tree(text), parse_tree(text)
    limit = sys.getrecursionlimit()
    monkeypatch.setattr(trees, "_VECTOR_MEMO_NODES", n)
    trees._VECTOR_MEMO.clear()
    sys.setrecursionlimit(1000)  # CPython's default
    try:
        for t in (first, second, first, second):
            assert tamari_vector(t) == (1,) * n
        assert trees._VECTOR_MEMO[id(first)][0] is first
        assert trees._VECTOR_MEMO[id(second)][0] is second
    finally:
        sys.setrecursionlimit(limit)
        trees._VECTOR_MEMO.clear()


def _fresh_canopy(t):
    """The canopy of a tree equal to ``t`` that no memo has seen."""
    copy = parse_tree(tree_str(t))
    assert id(copy) not in trees._CANOPY_MEMO
    return canopy(copy)


@pytest.mark.parametrize("word", [
    (1,), (2, 1), (3, 1, 3, 2, 1, 3), (5, 4, 2, 5, 4, 2, 2, 4, 2, 5),
    tuple(range(1, 3001)), tuple(range(3000, 0, -1)),
])
def test_canopy_memo_answers_as_a_fresh_walk(word):
    trees._CANOPY_MEMO.clear()
    p_shape.cache_clear()
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)  # CPython's default
    try:
        pair = p_shape(word)
        for t in pair:
            assert trees._CANOPY_MEMO[id(t)][0] is t
            assert canopy(t) == _fresh_canopy(t)
        assert canopies_complementary(*map(canopy, pair))
    finally:
        sys.setrecursionlimit(limit)
        trees._CANOPY_MEMO.clear()


def test_canopy_memo_is_bounded():
    trees._CANOPY_MEMO.clear()
    p_shape.cache_clear()
    bound = trees._CANOPY_MEMO_ENTRIES
    for n in range(2, bound + 2):  # more pairs than the memo has room for
        pair = p_shape(tuple(range(n, 0, -1)))
        assert len(trees._CANOPY_MEMO) <= bound
        assert [canopy(t) for t in pair] == ["0" * (n - 1), "1" * (n - 1)]
    trees._CANOPY_MEMO.clear()


def test_canopy_memo_keys_by_identity_not_by_value():
    trees._CANOPY_MEMO.clear()
    p_shape.cache_clear()
    left, right = p_shape((2, 4, 1, 3))
    # an entry that lies about its tree is only ever read for that object
    trees._CANOPY_MEMO[id(left)] = (left, "poisoned")
    assert canopy(left) == "poisoned"
    equal = parse_tree(tree_str(left))
    assert canopy(equal) == "010"
    assert id(equal) not in trees._CANOPY_MEMO  # a walk is not stored
    trees._CANOPY_MEMO.clear()
    assert canopy(left) == "010"


def test_canopy_of_the_leaf_is_refused_after_the_empty_insert():
    p_shape.cache_clear()
    assert p_shape(()) == (None, None)
    assert id(None) not in trees._CANOPY_MEMO
    with pytest.raises(ValueError, match="canopy of the empty tree is undefined"):
        canopy(None)


def _rotated_by_sizes(t, i, right):
    """The rotation at infix index ``i``, found by subtree sizes."""
    k = size(t.left) + 1
    if i < k:
        return Node(_rotated_by_sizes(t.left, i, right), t.right)
    if i > k:
        return Node(t.left, _rotated_by_sizes(t.right, i - k, right))
    if right:
        return Node(t.left.left, Node(t.left.right, t.right))
    return Node(Node(t.left, t.right.left), t.right.right)


def test_rotations_match_the_rotation_found_by_subtree_sizes():
    for n in range(7):
        for t in all_trees(n):
            for right, rotate in ((True, right_rotate), (False, left_rotate)):
                pivots = [i for i in range(1, n + 1)
                          if (_node_at(t, i).left if right else _node_at(t, i).right) is not None]
                want = [_rotated_by_sizes(t, i, right) for i in pivots]
                assert rotations(t, pivots, right) == want
                assert [rotate(t, i) for i in pivots] == want
                for i in set(range(1, n + 1)) - set(pivots):
                    side = "left" if right else "right"
                    with pytest.raises(ValueError, match=f"node {i} has no {side} subtree"):
                        rotate(t, i)
                for i in (0, -1, n + 1, 1.0):
                    with pytest.raises(ValueError, match=f"infix index {i} out of range"):
                        rotate(t, i)
                    with pytest.raises(ValueError, match=f"infix index {i} out of range"):
                        rotations(t, [*pivots, i], right)


def _node_at(t, i):
    """The node at infix index ``i``, found by subtree sizes."""
    k = size(t.left) + 1
    return t if i == k else _node_at(t.left, i) if i < k else _node_at(t.right, i - k)


@given(words_st)
def test_leaf_insert_left_builds_a_left_bst(word):
    t = build_left(word)
    assert is_left_bst(t)
    assert size(t) == len(word)


@given(words_st)
def test_root_insert_builds_a_right_bst(word):
    t = None
    for a in word:
        t = root_insert(t, a)
    assert is_right_bst(t)


@given(words_st)
def test_leaf_insert_right_flavor_matches_reversal(word):
    t = None
    for a in reversed(word):
        t = leaf_insert(t, a, "right")
    assert is_right_bst(t)


def test_leaf_insert_rejects_unknown_flavor():
    with pytest.raises(ValueError):
        leaf_insert(None, 1, "middle")


@given(words_st, st.integers(min_value=0, max_value=10))
def test_restricted_trees_split_labels_at_threshold(word, b):
    t = build_left(word)
    low, high = restricted_trees(t, b)
    assert sorted(_labels(low) + _labels(high)) == sorted(word)
    assert all(x <= b for x in _labels(low))
    assert all(x > b for x in _labels(high))


def _labels(t):
    if t is None:
        return []
    return _labels(t.left) + [t.label] + _labels(t.right)


def test_search_tree_predicates_bound_every_subtree():
    tie_left = parse_labeled_tree("(2 (2 . .) (3 . .))")
    tie_right = parse_labeled_tree("(2 (1 . .) (2 . .))")
    assert is_right_bst(tie_left) and not is_left_bst(tie_left)
    assert is_left_bst(tie_right) and not is_right_bst(tie_right)
    for text in ("(5 (3 . (6 . .)) .)", "(5 . (7 (4 . .) .))"):
        t = parse_labeled_tree(text)
        assert not is_left_bst(t) and not is_right_bst(t)


def test_restricted_trees_of_deep_trees_at_the_default_recursion_limit():
    n = 2000
    # The right search trees of 1..n (a left comb) and of n..1 (a right
    # comb): each part is rebuilt along a path about n nodes long.
    left_comb = "".join(f"({k} " for k in range(n, 0, -1)) + "." + " .)" * n
    right_comb = "".join(f"({k} . " for k in range(1, n + 1)) + "." + ")" * n
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)  # CPython's default
    try:
        low, high = restricted_trees(parse_labeled_tree(left_comb), 5)
        assert ltree_str(low) == "(5 (4 (3 (2 (1 . .) .) .) .) .)"
        assert ltree_str(high) == "".join(
            f"({k} " for k in range(n, 5, -1)) + "." + " .)" * (n - 5)
        low, high = restricted_trees(parse_labeled_tree(right_comb), n - 5)
        assert ltree_str(low) == "".join(
            f"({k} . " for k in range(1, n - 4)) + "." + ")" * (n - 5)
        assert ltree_str(high) == "".join(
            f"({k} . " for k in range(n - 4, n + 1)) + "." + ")" * 5
    finally:
        sys.setrecursionlimit(limit)


def test_infix_labeling_is_a_section_of_unlabeling():
    for n in range(1, 6):
        for t in all_trees(n):
            lt = infix_labeling(t)
            assert unlabel(lt) == t
            assert _labels(lt) == list(range(1, n + 1))


def test_is_decreasing():
    q = parse_labeled_tree("(7 (6 (3 . .) (5 (2 . .) .)) (4 (1 . .) .))")
    assert is_decreasing(q)
    not_q = parse_labeled_tree("(1 (2 . .) .)")
    assert not is_decreasing(not_q)


def test_labeled_node_fields():
    n = LNode(3, None, None)
    assert n.label == 3 and n.left is None and n.right is None
