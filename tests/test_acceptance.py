"""Acceptance criteria, one test per criterion.

Run with ``pytest tests/test_acceptance.py -v`` to get one pass/fail line
per criterion.  Every check is exact; there are no tolerances.  The whole
file finishes in a few minutes on a laptop.
"""

import itertools
import json
import shutil
import subprocess
import sys
from fractions import Fraction

from baxter.congruence import congruence_class
from baxter.hopf import (
    Element,
    baxter_numbers,
    connected_pairs,
    e_product,
    element_product,
    h_product,
    order_sum_tables,
    p_coproduct,
    p_element,
    p_product,
    pair_over,
    pair_under,
    rho,
    totally_primitive_basis,
)
from baxter.insertion import (
    baxter_representative,
    class_of_pair,
    min_perm,
    max_perm,
    p_shape,
    p_symbol,
)
from baxter.lattice import baxter_join, baxter_leq, baxter_meet, enumerate_tbt
from baxter.perms import inverse, is_baxter
from baxter.trees import (
    canopy,
    graft_over,
    graft_under,
    right_rotate,
    tamari_interval,
    tamari_leq,
)
from baxter.verify import (
    all_trees,
    baxter_number_formula,
    co_inversions,
    congruence_partition,
    leaf_insert,
    partitions_equal,
    phi_psi_theta,
    root_insert,
    unlabel,
    words_up_to,
)

BAXTER_COUNTS = (1, 1, 2, 6, 22, 92, 422, 2074)


def all_perms(n):
    return [tuple(p) for p in itertools.permutations(range(1, n + 1))]


def run_cli(*args):
    exe = shutil.which("bx")
    cmd = [exe] if exe else [sys.executable, "-m", "baxter.cli"]
    return subprocess.run(
        cmd + list(args), capture_output=True, text=True, timeout=300)


def report(number, label):
    print(f"PASS criterion {number:02d}: {label}")


def test_criterion_01_cli_class_calibration():
    proc = run_cli("class", "5273641", "--plain")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [
        "5237641", "5273641", "5276341", "5723641", "5726341", "5762341",
    ]
    report(1, "bx class 5273641 returns exactly the six class members")


def test_criterion_02_hilbert_series():
    for n in range(8):
        perms = all_perms(n)
        class_count = len({p_shape(p) for p in perms})
        pair_count = len(enumerate_tbt(n))
        baxter_count = sum(1 for p in perms if is_baxter(p))
        assert class_count == BAXTER_COUNTS[n]
        assert pair_count == BAXTER_COUNTS[n]
        assert baxter_count == BAXTER_COUNTS[n]
        assert baxter_number_formula(n) == BAXTER_COUNTS[n]
    report(2, "classes, twin pairs, and Baxter permutations all count "
              "1, 1, 2, 6, 22, 92, 422, 2074 for n = 0..7")


def test_criterion_03_unique_baxter_representative():
    for n in range(1, 8):
        groups = {}
        for p in all_perms(n):
            groups.setdefault(p_shape(p), []).append(p)
        for pair, members in groups.items():
            hits = [p for p in members if is_baxter(p)]
            assert len(hits) == 1, (pair, hits)
            assert baxter_representative(pair) == hits[0]
    report(3, "every class of S_n contains exactly one Baxter permutation "
              "(n <= 7)")


def test_criterion_04_intersection_of_sylvester_relations():
    for n in range(1, 7):
        perms = all_perms(n)
        baxter_ids = congruence_partition(perms, "baxter")
        sylv_ids = congruence_partition(perms, "sylvester")
        sharp_ids = congruence_partition(perms, "sylvester_sharp")
        both = {p: (sylv_ids[p], sharp_ids[p]) for p in perms}
        assert partitions_equal(baxter_ids, both)
    words = words_up_to(3, 4)
    baxter_ids = congruence_partition(words, "baxter")
    sylv_ids = congruence_partition(words, "sylvester")
    sharp_ids = congruence_partition(words, "sylvester_sharp")
    both = {w: (sylv_ids[w], sharp_ids[w]) for w in words}
    assert partitions_equal(baxter_ids, both)
    report(4, "the class partition is the common refinement of the two "
              "sylvester partitions (perms n <= 6, words len <= 4)")


def test_criterion_05_insertion_decides_equivalence_on_words():
    words = words_up_to(4, 6)
    rewrite_ids = congruence_partition(words, "baxter")
    symbol_ids = {w: p_symbol(w) for w in words}
    assert partitions_equal(rewrite_ids, symbol_ids)
    report(5, "P-symbol equality coincides with rewrite closure on all "
              "words of length <= 6 over {1..4}")


def test_criterion_06_insertion_lemmas():
    domains = [p for n in range(8) for p in all_perms(n)]
    domains += list(words_up_to(4, 4))
    for w in domains:
        rooted = None
        for a in w:
            rooted = root_insert(rooted, a)
        leafed = None
        for a in reversed(w):
            leafed = leaf_insert(leafed, a, "right")
        assert rooted == leafed, w
    for n in range(1, 8):
        for p in all_perms(n):
            t = None
            for a in p:
                t = leaf_insert(t, a, "left")
            bits = canopy(unlabel(t)) if n > 1 else ""
            coinv = co_inversions(p)
            for i in range(1, n):
                assert (bits[i - 1] == "0") == ((i, i + 1) in coinv), (p, i)
    report(6, "root insertion equals reversed right-leaf insertion, and "
              "leaf orientations encode adjacent co-inversions (n <= 7)")


def test_criterion_07_intervals_and_lattice_axioms():
    for n in range(1, 7):
        groups = {}
        for p in all_perms(n):
            groups.setdefault(p_shape(p), set()).add(p)
        for pair, members in groups.items():
            lo = co_inversions(min_perm(pair))
            hi = co_inversions(max_perm(pair))
            interval = {
                p for p in all_perms(n)
                if lo <= co_inversions(p) <= hi
            }
            assert members == interval, pair
    for n in range(1, 6):
        pairs = enumerate_tbt(n)
        leq = {a: {b for b in pairs if baxter_leq(a, b)} for a in pairs}
        for a in pairs:
            for b in pairs:
                m = baxter_meet(a, b)
                j = baxter_join(a, b)
                lower = [c for c in pairs if a in leq[c] and b in leq[c]]
                upper = [c for c in pairs if c in leq[a] and c in leq[b]]
                assert m in lower and all(m in leq[c] for c in lower)
                assert j in upper and all(c in leq[j] for c in upper)
    report(7, "classes are weak-order intervals (n <= 6) and the pair "
              "order is a lattice with exact meet/join (n <= 5)")


def test_criterion_08_tamari_vector_order():
    for n in range(1, 8):
        trees = all_trees(n)
        reach = {t: {t} for t in trees}
        for t in trees:
            frontier = {t}
            while frontier:
                new = set()
                for u in frontier:
                    for i in range(1, n + 1):
                        try:
                            r = right_rotate(u, i)
                        except ValueError:
                            continue
                        if r not in reach[t]:
                            new.add(r)
                reach[t] |= new
                frontier = new
        for s in trees:
            for t in trees:
                assert tamari_leq(s, t) == (t in reach[s])
    report(8, "componentwise vector comparison equals the rotation-closure "
              "order on all trees with n <= 7 nodes")


def test_criterion_09_hopf_closure():
    degrees = {}
    for n in range(7):
        degrees[n] = enumerate_tbt(n)
    for a in range(7):
        for b in range(7 - a):
            for j0 in degrees[a]:
                for j1 in degrees[b]:
                    prod = p_product(j0, j1)
                    assert all(c == Fraction(1) for c in prod.terms.values())
                    if a + b:
                        assert prod.terms
                    lhs = None
                    for key, coeff in prod.terms.items():
                        part = coeff * p_coproduct(key)
                        lhs = part if lhs is None else lhs + part
                    rhs = element_product(p_coproduct(j0), p_coproduct(j1))
                    assert lhs.terms == rhs.terms, (j0, j1)
    for n in range(7):
        for pair in degrees[n]:
            delta = p_coproduct(pair)
            left = {}
            right = {}
            for (u, v), c in delta.terms.items():
                for (p, q), d in p_coproduct(u).terms.items():
                    key = (p, q, v)
                    left[key] = left.get(key, 0) + c * d
                for (p, q), d in p_coproduct(v).terms.items():
                    key = (u, p, q)
                    right[key] = right.get(key, 0) + c * d
            left = {k: v for k, v in left.items() if v}
            right = {k: v for k, v in right.items() if v}
            assert left == right, pair
    report(9, "P-basis products and coproducts stay in the span with "
              "coefficients 1, and the bialgebra laws hold (degree <= 6)")


def test_criterion_10_order_sum_bases_multiply_by_grafting():
    # e_product and h_product return the graft; the P-basis identity
    # multiplies the order sums out and checks that the graft is right.
    for a in range(7):
        for b in range(7 - a):
            for j0 in enumerate_tbt(a):
                for j1 in enumerate_tbt(b):
                    over, under = pair_over(j0, j1), pair_under(j0, j1)
                    assert e_product(j0, j1).terms == {over: Fraction(1)}
                    assert h_product(j0, j1).terms == {under: Fraction(1)}
                    for basis, graft in (("E", over), ("H", under)):
                        x0, x1, x01 = (order_sum_tables(basis, d)[0] for d in (a, b, a + b))
                        assert element_product(x0[j0], x1[j1]) == x01[graft]
    report(10, "E- and H-basis products are single grafted terms "
               "(total degree <= 6)")


def _series_mul(f, g, nmax):
    return [
        sum(f[i] * g[k - i] for i in range(k + 1))
        for k in range(nmax + 1)
    ]


def _series_inv(f, nmax):
    assert f[0] != 0
    inv = [Fraction(1) / f[0]]
    for k in range(1, nmax + 1):
        acc = sum(f[i] * inv[k - i] for i in range(1, k + 1))
        inv.append(-acc / f[0])
    return inv


def test_criterion_11_connected_pairs_and_reciprocal_series():
    counts = [len(connected_pairs(n)) for n in range(8)]
    assert counts == [0, 1, 1, 3, 11, 47, 221, 1113]
    b = [Fraction(x) for x in baxter_numbers(7)]
    inv_b = _series_inv(b, 7)
    series = [Fraction(int(k == 0)) - inv_b[k] for k in range(8)]
    assert series == [Fraction(x) for x in counts]
    report(11, "connected pair counts are 1, 1, 3, 11, 47, 221, 1113 and "
               "equal the coefficients of 1 - 1/B(z)")


def test_criterion_12_totally_primitive_dimensions():
    dims = [len(totally_primitive_basis(n)) for n in range(1, 6)]
    assert dims == [1, 0, 1, 4, 19]
    b = [Fraction(x) for x in baxter_numbers(7)]
    inv_b2 = _series_inv(_series_mul(b, b, 7), 7)
    numer = list(b)
    numer[0] -= 1
    series = _series_mul(numer, inv_b2, 7)
    assert series[1:6] == [Fraction(x) for x in dims]
    basis3 = totally_primitive_basis(3)
    assert len(basis3) == 1
    expected = p_element(p_shape((2, 3, 1))) - p_element(p_shape((1, 3, 2)))
    scale = basis3[0].coeff(p_shape((2, 3, 1)))
    assert scale != 0
    assert basis3[0] == scale * expected
    report(12, "totally primitive dimensions are 1, 0, 1, 4, 19, match "
               "(B-1)/B^2, and degree 3 is spanned by the crossing "
               "difference")


def test_criterion_13_dual_composite_collision():
    j2143 = p_shape((2, 1, 4, 3))
    j3142 = p_shape((3, 1, 4, 2))
    assert class_of_pair(j2143) == frozenset({(2, 1, 4, 3), (2, 4, 1, 3)})
    assert class_of_pair(j3142) == frozenset({(3, 1, 4, 2), (3, 4, 1, 2)})
    assert inverse((2, 1, 4, 3)) == (2, 1, 4, 3)
    assert inverse((2, 4, 1, 3)) == (3, 1, 4, 2)
    assert inverse((3, 1, 4, 2)) == (2, 4, 1, 3)
    assert inverse((3, 4, 1, 2)) == (3, 4, 1, 2)
    image_a = phi_psi_theta(p_element(j2143))
    image_b = phi_psi_theta(p_element(j3142))
    assert image_a == image_b
    assert image_a.terms == {j2143: Fraction(1), j3142: Fraction(1)}
    report(13, "the composite into the dual sends both crossing classes to "
               "the same two-term sum")


def test_criterion_14_tree_class_embedding():
    images = []
    for n in range(1, 5):
        for t in all_trees(n):
            x = rho(t)
            assert x.terms
            images.append((t, x))
    for (t0, x0), (t1, x1) in itertools.combinations(images, 2):
        assert x0 != x1, (t0, t1)
    for a in range(1, 4):
        for b in range(1, 4):
            for t0 in all_trees(a):
                for t1 in all_trees(b):
                    # the sylvester product of t0 and t1 is the rotation
                    # interval between their grafts
                    interval = tamari_interval(graft_over(t0, t1), graft_under(t0, t1))
                    before = sum((rho(t) for t in interval), Element("P"))
                    after = element_product(rho(t0), rho(t1))
                    assert before == after, (t0, t1)
    report(14, "the tree-class embedding is injective (size <= 4) and "
               "multiplicative (sizes <= 3 + 3)")


def test_criterion_15_cli_insert_worked_figure():
    proc = run_cli("insert", "5425424")
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    assert payload["left_tree"] == "(5 (4 (2 . (2 . .)) (4 . (4 . .))) (5 . .))"
    assert payload["right_tree"] == "(4 (2 (2 . .) (4 (4 . .) .)) (5 (5 . .) .))"
    assert payload["q_tree"] == "(7 (6 (3 . .) (5 (2 . .) .)) (4 (1 . .) .))"
    assert payload["left_shape"] == "(((. (. .)) (. (. .))) (. .))"
    assert payload["right_shape"] == "(((. .) ((. .) .)) ((. .) .))"
    report(15, "bx insert 5425424 reproduces the worked P- and Q-symbols "
               "exactly")
