import pytest

from baxter import verify
from baxter.insertion import p_shape
from baxter.lattice import baxter_covers
from baxter.trees import pair_str, size as tree_size
from baxter.verify import (
    SUITES,
    baxter_number_formula,
    congruence_partition,
    partitions_equal,
    run,
    words_up_to,
)


def test_suite_registry():
    assert set(SUITES) == {
        "exactlin", "words", "perms", "trees", "congruence",
        "insertion", "lattice", "hopf", "series",
    }


def test_run_all_passes_at_small_bound():
    results = run(("all",), max_n=3)
    assert [name for name, _ in results] == list(SUITES)
    for name, checks in results:
        assert checks, name
        for check in checks:
            assert check.ok, (name, check.name, check.detail)


def test_run_selects_single_suite():
    results = run(("words",), max_n=3)
    assert len(results) == 1 and results[0][0] == "words"


def test_run_rejects_unknown_suite():
    with pytest.raises(ValueError):
        run(("frobnicate",), max_n=3)


def test_baxter_number_formula():
    assert [baxter_number_formula(n) for n in range(8)] == [
        1, 1, 2, 6, 22, 92, 422, 2074,
    ]


def test_words_up_to_counts():
    words = words_up_to(3, 2)
    assert set(words) == {(a,) for a in (1, 2, 3)} | {
        (a, b) for a in (1, 2, 3) for b in (1, 2, 3)
    }


def test_partitions_equal_detects_refinement():
    ids_a = {"x": 1, "y": 1, "z": 2}
    same = {"x": "a", "y": "a", "z": "b"}
    finer = {"x": "a", "y": "b", "z": "c"}
    assert partitions_equal(ids_a, same)
    assert not partitions_equal(ids_a, finer)
    assert not partitions_equal(same, ids_a) or partitions_equal(ids_a, same)


def test_congruence_partition_groups_classes():
    words = [(1, 3, 2), (3, 1, 2), (2, 1, 3)]
    ids = congruence_partition(words, "sylvester")
    assert ids[(1, 3, 2)] == ids[(3, 1, 2)]
    assert ids[(2, 1, 3)] != ids[(1, 3, 2)]


def test_partition_cache_gives_the_uncached_partition_every_time():
    for kind in ("baxter", "sylvester", "sylvester_sharp"):
        first = verify._word_partition(3, 4, kind)
        assert first == congruence_partition(words_up_to(3, 4), kind)
        assert verify._word_partition(3, 4, kind) == first
        perms = verify._perm_partition(4, kind)
        assert perms == congruence_partition(verify.all_perms(4), kind)
        assert verify._perm_partition(4, kind) == perms
    for cached in (verify._word_partition, verify._perm_partition):
        assert cached.cache_info().maxsize is not None


# Mutation cases: each replaces one kernel as ``baxter.verify`` sees it
# and asserts that the check built to catch it reports a failure.

JOIN_MEET_CHECK = "weak-order join/meet are the least upper and greatest lower bounds"
PAIR_BOUNDS_CHECK = "meet and join are the greatest lower and least upper bounds"
COVERS_CHECK = "cover moves match the transitive reduction exactly"


def _named(checks, prefix):
    (found,) = [c for c in checks if c.name.startswith(prefix)]
    return found


def _leq_without(monkeypatch, low, high):
    real = verify.baxter_leq
    monkeypatch.setattr(
        verify, "baxter_leq",
        lambda j0, j1: (j0, j1) != (low, high) and real(j0, j1))


def test_perms_suite_catches_a_join_that_overshoots(monkeypatch):
    monkeypatch.setattr(
        verify, "weak_order_join",
        lambda a, b: a if a == b else tuple(range(len(a), 0, -1)))
    assert not _named(verify.perms_suite(4), JOIN_MEET_CHECK).ok


def test_perms_suite_catches_a_meet_that_undershoots(monkeypatch):
    monkeypatch.setattr(
        verify, "weak_order_meet", lambda a, b: tuple(range(1, len(a) + 1)))
    assert not _named(verify.perms_suite(4), JOIN_MEET_CHECK).ok


def test_lattice_suite_catches_a_meet_at_the_bottom(monkeypatch):
    monkeypatch.setattr(
        verify, "baxter_meet",
        lambda j0, j1: p_shape(tuple(range(1, tree_size(j0[0]) + 1))))
    assert not _named(verify.lattice_suite(4), PAIR_BOUNDS_CHECK).ok


def test_lattice_suite_catches_an_order_missing_bottom_below_top(monkeypatch):
    _leq_without(monkeypatch, p_shape((1, 2, 3)), p_shape((3, 2, 1)))
    assert not _named(verify.lattice_suite(4), PAIR_BOUNDS_CHECK).ok


def test_lattice_suite_catches_an_order_missing_a_cover(monkeypatch):
    bottom = p_shape((1, 2, 3))
    (cover, *_) = sorted(baxter_covers(bottom), key=lambda c: pair_str(c.target))
    _leq_without(monkeypatch, bottom, cover.target)
    assert not _named(verify.lattice_suite(4), COVERS_CHECK).ok
