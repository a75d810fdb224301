import hashlib
import itertools
import sys
from collections import Counter

import pytest

from baxter import config
from baxter.cli import main
from baxter.hopf import Element, order_sum_tables
from baxter.insertion import is_twin_pair, min_perm, p_shape
from baxter.lattice import (
    PairCover,
    baxter_covers,
    baxter_interval,
    baxter_join,
    baxter_leq,
    baxter_meet,
    enumerate_tbt,
    hasse,
    hasse_dot,
)
from baxter.perms import permutohedron_leq
from baxter.trees import (
    canopy,
    complement_canopy,
    pair_str,
    parse_pair,
    tamari_vector,
    tree_str,
)
from baxter.verify import all_trees


def all_perms(n):
    return [tuple(p) for p in itertools.permutations(range(1, n + 1))]


def test_enumeration_counts():
    assert [len(enumerate_tbt(n)) for n in range(6)] == [1, 1, 2, 6, 22, 92]


def _order_filter(lo, hi, pairs):
    return [j for j in pairs if baxter_leq(lo, j) and baxter_leq(j, hi)]


def _interval_in_canonical_order(lo, hi):
    got = baxter_interval(lo, hi)
    assert len(set(got)) == len(got)  # no pair listed twice
    return sorted(got, key=pair_str)


def test_intervals_are_the_order_filter_of_the_vertex_list():
    incomparable = 0
    for n in range(5):
        pairs = enumerate_tbt(n)
        for lo, hi in itertools.product(pairs, repeat=2):
            got = _interval_in_canonical_order(lo, hi)
            assert got == _order_filter(lo, hi, pairs), (pair_str(lo), pair_str(hi))
            if not baxter_leq(lo, hi) and not baxter_leq(hi, lo):
                incomparable += 1
                assert got == []
    assert incomparable > 0
    pairs = enumerate_tbt(5)
    bottom, top = p_shape((1, 2, 3, 4, 5)), p_shape((5, 4, 3, 2, 1))
    for j in pairs:
        assert _interval_in_canonical_order(j, top) == _order_filter(j, top, pairs)
        assert _interval_in_canonical_order(bottom, j) == _order_filter(bottom, j, pairs)


def test_enumeration_is_in_pair_text_order_and_hasse_lists_the_sorted_covers():
    for n in range(7):
        pairs = enumerate_tbt(n)
        texts = [pair_str(j) for j in pairs]
        assert texts == sorted(set(texts))
        listing = [[(texts[k], case) for k, case in row] for row in hasse(n)]
        assert listing == [
            sorted((pair_str(c.target), c.case) for c in baxter_covers(j))
            for j in pairs
        ]


def test_enumeration_pairs_the_canopy_groups_of_all_trees(monkeypatch):
    # The Catalan-list construction the canopy-interval walk replaced.
    # The uncached function runs, so no degree-8 table outlives the cap.
    monkeypatch.setattr(config, "ENUM_DEGREE_CAP", 8)
    for n in range(9):
        groups = {}
        for t in all_trees(n):
            groups.setdefault(canopy(t) if n else "", []).append(t)
        pairs = [(tl, tr) for c, lefts in groups.items() for tl in lefts
                 for tr in groups.get(complement_canopy(c), ())]
        assert enumerate_tbt.__wrapped__(n) == tuple(sorted(pairs, key=pair_str))


def test_enumeration_matches_insertion_shapes():
    for n in range(6):
        assert set(enumerate_tbt(n)) == {p_shape(p) for p in all_perms(n)}


def test_bottom_and_top():
    for n in range(1, 6):
        bottom = p_shape(tuple(range(1, n + 1)))
        top = p_shape(tuple(range(n, 0, -1)))
        for pair in enumerate_tbt(n):
            assert baxter_leq(bottom, pair)
            assert baxter_leq(pair, top)


def test_leq_examples():
    j12 = parse_pair("[ (. (. .)) | ((. .) .) ]")
    j21 = parse_pair("[ ((. .) .) | (. (. .)) ]")
    assert baxter_leq(j12, j21)
    assert not baxter_leq(j21, j12)
    assert baxter_leq(j12, j12)


def test_leq_rejects_pairs_of_different_sizes():
    with pytest.raises(ValueError, match="sizes differ"):
        baxter_leq(p_shape((1, 2)), p_shape((1, 2, 3)))
    with pytest.raises(ValueError, match="sizes differ"):
        baxter_leq(p_shape(()), p_shape((1,)))


def test_meet_and_join_reject_pairs_of_different_sizes():
    for op in (baxter_meet, baxter_join):
        with pytest.raises(ValueError, match="sizes differ"):
            op(p_shape((1, 2)), p_shape((1, 2, 3)))
        with pytest.raises(ValueError, match="sizes differ"):
            op(p_shape(()), p_shape((1,)))


def test_order_sum_tables_match_a_direct_order_sweep():
    for n in range(7):
        pairs = enumerate_tbt(n)
        vectors = {j: (tamari_vector(j[0]), tamari_vector(j[1])) for j in pairs}

        def leq(j0, j1):
            (l0, r0), (l1, r1) = vectors[j0], vectors[j1]
            return all(a >= b for a, b in zip(l0, l1)) and all(
                a <= b for a, b in zip(r0, r1))

        e_table, h_table = order_sum_tables("E", n)[0], order_sum_tables("H", n)[0]
        assert set(e_table) == set(h_table) == set(pairs)
        for j in pairs:
            assert e_table[j] == Element("P", {k: 1 for k in pairs if leq(j, k)})
            assert h_table[j] == Element("P", {k: 1 for k in pairs if leq(k, j)})


def test_leq_matches_the_four_vector_comparison():
    for n in range(6):
        pairs = enumerate_tbt(n)
        vectors = {j: (tamari_vector(j[0]), tamari_vector(j[1])) for j in pairs}
        for a in pairs:
            (l0, r0) = vectors[a]
            for b in pairs:
                (l1, r1) = vectors[b]
                expected = all(x >= y for x, y in zip(l0, l1)) and all(
                    x <= y for x, y in zip(r0, r1))
                assert baxter_leq(a, b) == expected, (pair_str(a), pair_str(b))


def test_order_transports_the_weak_order():
    for n in range(1, 6):
        pairs = enumerate_tbt(n)
        for a in pairs:
            for b in pairs:
                if baxter_leq(a, b):
                    assert permutohedron_leq(min_perm(a), min_perm(b))


# Which trees a cover of each case rotates: (left, right).
MOVED = {"left-only": (True, False), "right-only": (False, True),
         "simultaneous": (True, True)}


def test_covers_report_their_case():
    j12 = parse_pair("[ (. (. .)) | ((. .) .) ]")
    covers = baxter_covers(j12)
    assert covers == frozenset(
        {PairCover(parse_pair("[ ((. .) .) | (. (. .)) ]"), "simultaneous")})
    for n in range(1, 7):
        for pair in enumerate_tbt(n):
            for cov in baxter_covers(pair):
                left, right = cov.target
                assert (left != pair[0], right != pair[1]) == MOVED[cov.case]
                assert is_twin_pair(cov.target)
                assert baxter_leq(pair, cov.target)


def test_covers_of_a_deep_pair_follow_the_edge_rule():
    word = list(range(1, 1101))
    for i in range(2, 1003, 100):
        word[i], word[i + 1] = word[i + 1], word[i]
    pair = p_shape(tuple(word))
    texts = tuple(map(tree_str, pair))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)  # CPython's default
    try:
        covers = baxter_covers(pair)
        assert Counter(c.case for c in covers) == {
            "simultaneous": 1066, "left-only": 11, "right-only": 11}
        for cov in covers:
            # deep trees compare by text: tuple == recurses
            left, right = map(tree_str, cov.target)
            assert (left != texts[0], right != texts[1]) == MOVED[cov.case]
            assert is_twin_pair(cov.target)
    finally:
        sys.setrecursionlimit(limit)


def test_covers_generate_the_order():
    for n in range(1, 6):
        pairs = enumerate_tbt(n)
        reach = {p: {p} for p in pairs}
        for p in pairs:
            frontier = {p}
            while frontier:
                new = set()
                for q in frontier:
                    for cov in baxter_covers(q):
                        if cov.target not in reach[p]:
                            new.add(cov.target)
                reach[p] |= new
                frontier = new
        for a in pairs:
            for b in pairs:
                assert baxter_leq(a, b) == (b in reach[a])


def test_meet_and_join_are_bounds():
    for n in range(1, 5):
        pairs = enumerate_tbt(n)
        for a in pairs:
            for b in pairs:
                m = baxter_meet(a, b)
                j = baxter_join(a, b)
                assert baxter_leq(m, a) and baxter_leq(m, b)
                assert baxter_leq(a, j) and baxter_leq(b, j)
                for c in pairs:
                    if baxter_leq(c, a) and baxter_leq(c, b):
                        assert baxter_leq(c, m)
                    if baxter_leq(a, c) and baxter_leq(b, c):
                        assert baxter_leq(j, c)


def test_meet_join_idempotent_and_commutative():
    pairs = enumerate_tbt(4)
    for a in pairs:
        assert baxter_meet(a, a) == a
        assert baxter_join(a, a) == a
    for a, b in itertools.combinations(pairs, 2):
        assert baxter_meet(a, b) == baxter_meet(b, a)
        assert baxter_join(a, b) == baxter_join(b, a)


def test_hasse_dot_output():
    dot = hasse_dot(2)
    assert dot.startswith("digraph")
    assert '"[ (. (. .)) | ((. .) .) ]" -> "[ ((. .) .) | (. (. .)) ]"' in dot
    assert dot.rstrip().endswith("}")
    for pair in enumerate_tbt(2):
        assert pair_str(pair) in dot


def test_covers_of_deep_pairs_at_the_default_recursion_limit():
    n = 1100
    bottom = p_shape(tuple(range(1, n + 1)))
    top = p_shape(tuple(range(n, 0, -1)))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)  # CPython's default
    try:
        # every rotation walks a path up to n nodes long
        covers = baxter_covers(bottom)
        assert len(covers) == n - 1
        assert {c.case for c in covers} == {"simultaneous"}
        assert baxter_covers(top) == frozenset()
    finally:
        sys.setrecursionlimit(limit)


def test_lattice_7_json_output_is_pinned_by_digest(capsys):
    # the CLI's top degree: 2,620 pairs and 6,768 covers, in canonical
    # order with their cases; recorded before covers were read off edges
    assert main(["lattice", "7"]) == 0
    out = capsys.readouterr().out
    digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
    assert digest == "d463bceda88bd917abbf3ecd082fefa789a985523a7445715f71b6d2b93c74e5"
