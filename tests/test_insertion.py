import itertools
import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

from baxter import hopf, insertion
from baxter.congruence import congruence_class
from baxter.errors import InternalInvariantError
from baxter.insertion import (
    baxter_representative,
    check_twin_pair,
    class_of_pair,
    is_twin_pair,
    max_perm,
    min_perm,
    p_shape,
    p_symbol,
    q_symbol,
)
from baxter.perms import is_baxter, permutohedron_leq
from baxter.trees import (
    Node,
    canopies_complementary,
    canopy,
    infix_edges,
    ltree_str,
    pair_str,
    tamari_vector,
    tree_str,
)
from baxter.verify import (
    all_trees,
    infix_labeling,
    is_decreasing,
    leaf_insert,
    root_insert,
    unlabel,
)


def all_perms(n):
    return [tuple(p) for p in itertools.permutations(range(1, n + 1))]


WORKED_WORD = (5, 4, 2, 5, 4, 2, 4)


def test_p_symbol_of_worked_word():
    left, right = p_symbol(WORKED_WORD)
    assert ltree_str(left) == "(5 (4 (2 . (2 . .)) (4 . (4 . .))) (5 . .))"
    assert ltree_str(right) == "(4 (2 (2 . .) (4 (4 . .) .)) (5 (5 . .) .))"


def test_q_symbol_of_worked_word():
    q = q_symbol(WORKED_WORD)
    assert ltree_str(q) == "(7 (6 (3 . .) (5 (2 . .) .)) (4 (1 . .) .))"
    assert is_decreasing(q)


def test_shape_drops_labels():
    left, right = map(unlabel, p_symbol(WORKED_WORD))
    assert tree_str(left) == "(((. (. .)) (. (. .))) (. .))"
    assert tree_str(right) == "(((. .) ((. .) .)) ((. .) .))"
    assert (left, right) == p_shape(WORKED_WORD)


def test_p_symbol_trees_come_from_the_two_insertions():
    for w in [WORKED_WORD, (3, 1, 2), (1,), (2, 2, 1)]:
        left, right = p_symbol(w)
        built = None
        for a in w:
            built = leaf_insert(built, a, "left")
        assert left == built
        rooted = None
        for a in w:
            rooted = root_insert(rooted, a)
        assert right == rooted


def test_empty_word_symbols():
    assert p_symbol(()) == (None, None)
    assert q_symbol(()) is None
    assert p_shape(()) == (None, None)


def test_symbols_and_shape_of_one_word_share_two_insertion_passes(monkeypatch):
    calls = []
    real = insertion._leaf_insertion

    def counting(w, steps):
        calls.append(steps)
        return real(w, steps)

    monkeypatch.setattr(insertion, "_leaf_insertion", counting)
    u = (7, 3, 9, 3, 1, 8, 2, 6, 5, 4, 7, 11, 10)  # used by no other test
    left, right = p_symbol(u)
    q = q_symbol(u)
    shape = p_shape(u)
    assert len(calls) == 2
    assert shape == (unlabel(left), unlabel(right))
    assert unlabel(q) == shape[1]


def test_twin_check_names_the_pair_when_a_pass_goes_wrong(monkeypatch):
    real = insertion._insertion_passes

    def moved(w):
        # the forward pass's right child of position 0 hangs under position 1
        keyed, (left, right), backward = real(w)
        right = list(right)
        right[1], right[0] = right[0], len(w)
        return keyed, (left, right), backward

    monkeypatch.setattr(insertion, "_insertion_passes", moved)
    p_shape.cache_clear()
    with pytest.raises(InternalInvariantError) as caught:
        p_shape((20, 10, 30))
    assert str(caught.value) == (
        "insertion produced non-complementary canopies: "
        "[ ((. (. .)) .) | ((. (. .)) .) ]")


def test_is_twin_pair():
    assert is_twin_pair(p_shape((2, 1, 4, 3)))
    assert is_twin_pair((None, None))
    left, _ = p_shape((1, 2, 3))
    assert not is_twin_pair((left, left))
    one = Node(None, None)
    assert is_twin_pair((one, one))
    assert not is_twin_pair((one, None)) and not is_twin_pair((None, one))
    _, right = p_shape((1, 2))
    assert not is_twin_pair((one, right)) and not is_twin_pair((right, one))


def test_check_twin_pair_is_the_one_twin_pair_check():
    from baxter.hopf import p_element, pair_over
    from baxter.lattice import baxter_covers

    good = p_shape((2, 1, 4, 3))
    assert check_twin_pair(good) is good
    left, _ = p_shape((1, 2, 3))
    bad = (left, left)
    message = f"not a twin pair: {pair_str(bad)}"
    for call in (check_twin_pair, class_of_pair, baxter_covers, p_element,
                 lambda j: pair_over(good, j)):
        with pytest.raises(ValueError) as info:
            call(bad)
        assert str(info.value) == message


def test_every_shape_has_complementary_canopies():
    for p in all_perms(5):
        left, right = p_shape(p)
        assert is_twin_pair((left, right))
        assert canopy(left) != canopy(right) or len(p) == 1


def test_class_of_pair_matches_rewrite_closure():
    for n in range(1, 6):
        for p in all_perms(n):
            assert class_of_pair(p_shape(p)) == frozenset(congruence_class(p, "baxter"))


def test_class_of_pair_crossing_example():
    assert class_of_pair(p_shape((2, 1, 4, 3))) == frozenset({(2, 1, 4, 3), (2, 4, 1, 3)})
    assert class_of_pair(p_shape((3, 1, 4, 2))) == frozenset({(3, 1, 4, 2), (3, 4, 1, 2)})


def test_class_of_pair_rejects_non_twin_input():
    left, _ = p_shape((1, 2, 3))
    with pytest.raises(ValueError):
        class_of_pair((left, left))


def test_min_and_max_perm_bound_the_class():
    for p in all_perms(5):
        pair = p_shape(p)
        lo, hi = min_perm(pair), max_perm(pair)
        cls = class_of_pair(pair)
        assert lo in cls and hi in cls
        for q in cls:
            assert permutohedron_leq(lo, q) and permutohedron_leq(q, hi)


def test_extremes_meet_join_and_duals_never_enumerate_a_class(monkeypatch):
    import random

    from baxter.hopf import connected_pairs, dual_coproduct, dual_product
    from baxter.lattice import baxter_join, baxter_meet

    pairs = sorted({p_shape(p) for n in range(5) for p in all_perms(n)}, key=pair_str)
    degree = {j: len(min(class_of_pair(j))) for j in pairs}
    alike = [(a, b) for a in pairs for b in pairs if degree[a] == degree[b]]
    small = [j for j in pairs if degree[j] <= 3]

    def answers():
        return ([(min_perm(j), max_perm(j)) for j in pairs],
                [(baxter_meet(a, b), baxter_join(a, b)) for a, b in alike],
                [repr(dual_product(a, b)) for a in small for b in small],
                [repr(dual_coproduct(j)) for j in small],
                [baxter_representative(j) for j in pairs],
                connected_pairs(4))

    expected = answers()
    assert expected[0] == [(min(class_of_pair(j)), max(class_of_pair(j))) for j in pairs]

    def refuse(pair):
        raise AssertionError("a class was enumerated")

    monkeypatch.setattr(insertion, "class_of_pair", refuse)
    insertion._extremes.cache_clear()
    connected_pairs.cache_clear()
    assert answers() == expected

    # a degree-60 class of about 3.8e38 members, far past any enumeration
    u = list(range(1, 61))
    random.Random(16).shuffle(u)
    j = p_shape(tuple(u))
    lo, hi = min_perm(j), max_perm(j)
    assert p_shape(lo) == j == p_shape(hi) and permutohedron_leq(lo, hi)
    assert baxter_join(j, j) == j == baxter_meet(j, j)
    rep = baxter_representative(j)
    assert is_baxter(rep) and p_shape(rep) == j


def test_class_caches_are_bounded():
    for cached in (insertion._extremes, class_of_pair, p_shape, hopf.rho):
        assert cached.cache_info().maxsize is not None


def test_sylvester_class_of_tree():
    # the sylvester class of a right tree is the union of the baxter
    # classes of its twin pairs, one for each canopy-complementary left tree
    for n in range(1, 6):
        for right in all_trees(n):
            union = set()
            for left in all_trees(n):
                if canopies_complementary(canopy(left), canopy(right)):
                    union |= class_of_pair((left, right))
            p = min(union)
            assert p_shape(p)[1] == right
            assert union == congruence_class(p, "sylvester")


def test_baxter_representative_is_the_unique_baxter_member():
    for p in all_perms(5):
        pair = p_shape(p)
        rep = baxter_representative(pair)
        cls = class_of_pair(pair)
        assert rep in cls
        assert is_baxter(rep)
        assert sum(1 for q in cls if is_baxter(q)) == 1


def test_p_symbol_equality_is_class_membership_on_words():
    words = [
        (1, 2, 1), (2, 1, 1), (1, 1, 2),
        (5, 4, 2, 5, 4, 2, 4), (5, 4, 5, 2, 4, 2, 4),
    ]
    for u in words:
        for v in words:
            same = p_symbol(u) == p_symbol(v)
            assert same == (v in congruence_class(u, "baxter"))


def test_insertion_separates_permutations_with_recording():
    seen = {}
    for p in all_perms(5):
        key = (p_symbol(p), unlabel(q_symbol(p)), tuple(sorted(_labels(q_symbol(p)))))
        sig = (ltree_str(key[0][0]), ltree_str(key[0][1]), ltree_str(q_symbol(p)))
        assert sig not in seen, f"collision between {seen.get(sig)} and {p}"
        seen[sig] = p


def _labels(t):
    if t is None:
        return []
    return _labels(t.left) + [t.label] + _labels(t.right)


def test_pair_str_of_shape():
    assert pair_str(p_shape((1, 2))) == "[ (. (. .)) | ((. .) .) ]"
    assert pair_str(p_shape(())) == "[ . | . ]"


def _step_labels(t):
    """Relabel a tree of (letter, step) labels by step."""
    if t is None:
        return None
    return type(t)(t.label[1], _step_labels(t.left), _step_labels(t.right))


def folded_symbols(w):
    """P- and Q-symbols of ``w`` by the single-step insertions.

    The Q-symbol root-inserts (letter, step) labels: every earlier equal
    letter compares smaller, so it goes left as ties do.
    """
    left = right = keyed = None
    for step, a in enumerate(w, start=1):
        left = leaf_insert(left, a, "left")
        right = root_insert(right, a)
        keyed = root_insert(keyed, (a, step))
    return left, right, _step_labels(keyed)


def test_symbols_match_single_step_insertions_exhaustively():
    words = itertools.chain.from_iterable(
        itertools.product(range(1, 5), repeat=length) for length in range(8))
    perms = itertools.chain.from_iterable(all_perms(n) for n in range(8))
    for w in itertools.chain(words, perms):
        left, right, q = folded_symbols(w)
        assert (*p_symbol(w), q_symbol(w)) == (left, right, q), w
        # the uncached function, so the cache does not keep every word
        assert insertion._shape.__wrapped__(w) == (unlabel(left), unlabel(right)), w


@st.composite
def long_words(draw):
    """Words of length up to 300 over an alphabet no larger, so letters
    repeat."""
    n = draw(st.integers(0, 300))
    k = draw(st.integers(1, max(1, n)))
    return draw(st.lists(st.integers(1, k), min_size=n, max_size=n))


@settings(max_examples=100, deadline=None)
@given(long_words())
def test_symbols_match_single_step_insertions_on_long_words(w):
    got = (*p_symbol(w), q_symbol(w))
    folded = folded_symbols(w)
    assert list(map(ltree_str, got)) == list(map(ltree_str, folded))
    shape = insertion._shape.__wrapped__(tuple(w))
    assert list(map(tree_str, shape)) == [tree_str(unlabel(t)) for t in folded[:2]]


def _right_comb(labels):
    return "".join(f"({a} . " for a in labels) + "." + ")" * len(labels)


def _left_comb(labels):
    return "".join(f"({a} " for a in labels) + "." + " .)" * len(labels)


def test_deep_words_need_no_raised_recursion_limit():
    n = 3000
    up = tuple(range(1, n + 1))
    down = up[::-1]
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)  # CPython's default
    try:
        left, right = p_symbol(up)
        assert ltree_str(left) == _right_comb(up)
        assert ltree_str(right) == _left_comb(down)
        assert ltree_str(q_symbol(up)) == _left_comb(down)
        pair = p_shape(up)
        assert (canopy(pair[0]), canopy(pair[1])) == ("1" * (n - 1), "0" * (n - 1))
        assert class_of_pair(pair) == frozenset({up})

        left, right = p_symbol(down)
        assert ltree_str(left) == _left_comb(down)
        assert ltree_str(right) == _right_comb(up)
        assert ltree_str(q_symbol(down)) == _right_comb(down)
        pair = p_shape(down)
        assert (canopy(pair[0]), canopy(pair[1])) == ("0" * (n - 1), "1" * (n - 1))
        assert pair_str(pair).count("(") == 2 * n
        assert class_of_pair(pair) == frozenset({down})
    finally:
        sys.setrecursionlimit(limit)


def test_p_shape_checks_the_word_before_its_cache():
    p_shape((1, 2))
    for bad in ((True, 2), (1.0, 2.0)):
        with pytest.raises(ValueError):
            p_shape(bad)
    assert p_shape([2, 1]) == p_shape((2, 1))


def _nodes(pair):
    """The distinct node objects of a pair, by identity."""
    seen = {}
    todo = list(pair)
    while todo:
        t = todo.pop()
        if t is not None and id(t) not in seen:
            seen[id(t)] = t
            todo += (t.left, t.right)
    return list(seen.values())


def _same_shapes(got, want):
    # by text and vector: ``==`` recurses in C on deep trees
    return ([tree_str(t) for t in got] == [tree_str(t) for t in want]
            and [tamari_vector(t) for t in got] == [tamari_vector(t) for t in want])


def test_p_shape_shares_equal_subtrees():
    rng = random.Random(22)
    words = []
    for n in (0, 1, 2, 5, 30, 300, 2000):
        words.append(tuple(rng.sample(range(1, n + 1), n)))
        words.append(tuple(rng.randint(1, max(1, n // 5)) for _ in range(n)))
    for w in words:
        pair = insertion._shape.__wrapped__(w)
        # the unshared build: one node per letter in each tree
        assert _same_shapes(pair, tuple(map(unlabel, p_symbol(w)))), w
        # no two distinct node objects of the pair are equal
        nodes = _nodes(pair)
        assert len({tree_str(t) for t in nodes}) == len(nodes), w


def test_p_shape_shares_subtrees_of_deep_combs_at_the_default_limit():
    n = 20000
    up = tuple(range(1, n + 1))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)  # CPython's default
    try:
        for w in (up, up[::-1]):
            pair = insertion._shape.__wrapped__(w)
            assert _same_shapes(pair, tuple(map(unlabel, p_symbol(w))))
            # a left and a right comb of each size, sharing only the leaf
            assert len(_nodes(pair)) == 2 * n - 1
    finally:
        sys.setrecursionlimit(limit)


def _lcg_word():
    """A 6,000-letter word made with integer steps only, so it is the
    same on every Python: a permutation of 1..3000 (sorted by 3,000
    steps) followed by 3,000 letters in 1..600."""
    x = 7

    def step():
        nonlocal x
        x = (x * 1103515245 + 12345) % 2**31
        return x

    keys = [step() for _ in range(3000)]
    perm = sorted(range(1, 3001), key=lambda v: keys[v - 1])
    return tuple(perm) + tuple(step() % 600 + 1 for _ in range(3000))


def test_a_long_word_keeps_at_most_one_node_per_letter():
    w = _lcg_word()
    pair = insertion._shape.__wrapped__(w)
    assert _same_shapes(pair, tuple(map(unlabel, p_symbol(w))))
    assert len(_nodes(pair)) <= len(w)  # an unshared pair has 2 * len(w)


def _labeled_edges(t):
    """(parent, child) label pairs of a labeled tree, by recursion."""
    if t is None:
        return []
    out = [(t.label, c.label) for c in (t.left, t.right) if c is not None]
    return out + _labeled_edges(t.left) + _labeled_edges(t.right)


def test_infix_edges_match_the_infix_labeling():
    for n in range(9):
        for t in all_trees(n):
            count, edges = infix_edges(t)
            assert count == n
            assert sorted(edges) == sorted(_labeled_edges(infix_labeling(t)))
