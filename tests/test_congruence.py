import itertools

from baxter.congruence import KINDS, adjacent_rewrites, congruence_class


def all_perms(n):
    return [tuple(p) for p in itertools.permutations(range(1, n + 1))]


def test_kinds_are_the_three_relations():
    assert KINDS == ("baxter", "sylvester", "sylvester_sharp")


def test_adjacent_rewrites_need_a_witness():
    # (1, 3) may swap only next to a witness 2 on the correct side
    assert congruence_class((1, 3, 2), "sylvester") == {(1, 3, 2), (3, 1, 2)}
    assert congruence_class((2, 1, 3), "sylvester") == {(2, 1, 3)}
    assert congruence_class((2, 1, 3), "sylvester_sharp") == {(2, 1, 3), (2, 3, 1)}
    assert congruence_class((1, 3, 2), "sylvester_sharp") == {(1, 3, 2)}


def test_rewrites_are_symmetric():
    for kind in KINDS:
        for w in all_perms(4):
            for r in adjacent_rewrites(w, kind):
                assert w in set(adjacent_rewrites(r, kind))


def test_calibration_class():
    expected = {
        (5, 2, 3, 7, 6, 4, 1),
        (5, 2, 7, 3, 6, 4, 1),
        (5, 2, 7, 6, 3, 4, 1),
        (5, 7, 2, 3, 6, 4, 1),
        (5, 7, 2, 6, 3, 4, 1),
        (5, 7, 6, 2, 3, 4, 1),
    }
    assert congruence_class((5, 2, 7, 3, 6, 4, 1), "baxter") == expected


def test_baxter_class_is_intersection_of_sylvester_classes():
    for w in all_perms(4):
        sylv = congruence_class(w, "sylvester")
        sharp = congruence_class(w, "sylvester_sharp")
        assert congruence_class(w, "baxter") == sylv & sharp


def test_equivalent_words_share_letters():
    for kind in KINDS:
        for w in all_perms(4):
            for v in congruence_class(w, kind):
                assert sorted(v) == sorted(w)


def test_equivalent_on_words_with_repeats():
    assert (2, 1, 1) in congruence_class((1, 2, 1), "sylvester")
    assert (1, 1, 2) not in congruence_class((1, 2, 1), "sylvester")
    assert (2, 2, 1) in congruence_class((2, 1, 2), "sylvester_sharp")
    assert (5, 4, 5, 2, 4, 2, 4) in congruence_class((5, 4, 2, 5, 4, 2, 4), "baxter")


def test_degenerate_words():
    for kind in KINDS:
        assert congruence_class((), kind) == {()}
        assert congruence_class((1,), kind) == {(1,)}
        assert congruence_class((1, 1), kind) == {(1, 1)}


def test_class_sizes_partition_the_symmetric_group():
    for n in range(1, 6):
        perms = all_perms(n)
        seen = set()
        total = 0
        while perms:
            w = perms.pop()
            if w in seen:
                continue
            cls = congruence_class(w, "baxter")
            assert not (cls & seen)
            seen |= cls
            total += len(cls)
        assert total == len(all_perms(n))
