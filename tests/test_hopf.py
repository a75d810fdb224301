import itertools
import os
import subprocess
import sys
from fractions import Fraction

import pytest

import baxter.hopf as hopf
from baxter import config, verify
from baxter.congruence import congruence_class
from baxter.errors import InternalInvariantError, NotInSubalgebraError
from baxter.hopf import (
    Element,
    baxter_numbers,
    connected_pairs,
    dual_coproduct,
    dual_product,
    e_product,
    element_product,
    h_product,
    one,
    p_coproduct,
    p_element,
    p_product,
    pair_over,
    pair_under,
    rho,
    totally_primitive_basis,
)
from baxter.insertion import class_of_pair, p_shape
from baxter.lattice import baxter_leq, enumerate_tbt, hasse
from baxter.trees import (
    canopies_complementary,
    canopy,
    complement_canopy,
    graft_over,
    graft_under,
    pair_str,
    parse_pair,
    parse_tree,
    size as tree_size,
    tamari_interval,
    tree_str,
)
from baxter.verify import (
    all_trees,
    collect,
    f_coproduct,
    f_coproduct_left,
    f_coproduct_right,
    f_element,
    f_prec,
    f_product,
    f_succ,
    fstar_coproduct,
    fstar_element,
    fstar_product,
    p_to_f,
    phi,
    phi_psi_theta,
    psi,
    theta,
)


J1 = p_shape((1,))
J12 = p_shape((1, 2))
J21 = p_shape((2, 1))
J2143 = p_shape((2, 1, 4, 3))
J3142 = p_shape((3, 1, 4, 2))
T5 = p_shape((3, 1, 2, 5, 4))[1]  # a right tree of 5 nodes


def test_element_arithmetic():
    a = f_element((1, 2))
    b = f_element((2, 1))
    s = a + b
    assert s.coeff((1, 2)) == 1 and s.coeff((2, 1)) == 1
    assert (s - a).terms == b.terms
    assert (2 * a).coeff((1, 2)) == Fraction(2)
    assert (a - a).terms == {}
    assert a.support() == {(1, 2)}


def test_elements_of_different_bases_do_not_mix():
    tensor = Element(("F", "F"), {((1,), ()): 1})
    for x, y in [
        (f_element((1,)), fstar_element((1,))),
        (f_element((1,)), tensor),
        (tensor, Element(("F", "Fstar"), {((1,), ()): 1})),
    ]:
        with pytest.raises(ValueError):
            x + y


def test_element_is_independent_of_insertion_order():
    pairs = [
        ("F", [((2, 1), 1), ((1,), Fraction(1, 2)), ((1, 2), -3), ((), 1)]),
        (("P", "P"), [((J12, J1), 1), ((J1, J12), 2), ((J1, J21), 1), ((J21, J1), -1)]),
    ]
    for basis, items in pairs:
        x = Element(basis, items)
        y = Element(basis, list(reversed(items)))
        assert list(x.terms) != list(y.terms)
        assert x == y
        assert hash(x) == hash(y)
        assert repr(x) == repr(y)
        assert x.to_json() == y.to_json()


def test_element_drops_zero_coefficients():
    x = Element("F", [((1, 2), 1), ((2, 1), 0), ((1, 2), -1), ((1,), 2)])
    assert x.terms == {(1,): Fraction(2)}
    tensor = Element(("F", "F"), {((1,), ()): 0, ((), (1,)): 1})
    assert tensor.terms == {((), (1,)): Fraction(1)}
    assert not Element(("P", "P"), {(J1, J1): 0})


def test_element_of_nonzero_int_coefficients_on_distinct_keys_is_kept_as_given():
    x = Element("P", [(J12, 2), (J21, -1), (J1, 1)])
    assert x.terms == {J12: 2, J21: -1, J1: 1}
    assert all(type(c) is int for c in x.terms.values())
    # any zero, repeat or non-int coefficient takes the normalizing pass
    assert Element("P", [(J12, 2), (J21, 0)]).terms == {J12: 2}
    assert Element("P", [(J12, 2), (J12, -2), (J1, 1)]).terms == {J1: 1}
    y = Element("P", [(J12, Fraction(4, 2)), (J1, True)])
    assert y.terms == {J12: 2, J1: 1}
    assert all(type(c) is int for c in y.terms.values())


def test_key_degree_is_the_tree_size():
    assert len(hopf._BASES) == 6
    assert {kind for kind, _ in hopf._BASES.values()} == {"perm", "pair"}
    for n in range(7):
        for j in enumerate_tbt(n):
            for basis in ("P", "E", "H", "Pstar"):
                assert hopf.key_degree(basis, j) == tree_size(j[0]) == n
    deep = p_shape(tuple(range(1, 3001)))
    assert hopf.key_degree("P", deep) == 3000
    assert hopf.key_degree("F", (2, 1, 3)) == 3


def test_element_key_shapes():
    x = p_element(J12) + p_element(J21)
    assert set(x.terms) == {J12, J21}
    delta = p_coproduct(J12)
    assert delta.basis == ("P", "P")
    assert all(isinstance(key, tuple) and len(key) == 2 for key in delta.terms)
    assert (J1, J1) in delta.terms
    assert repr(delta) == (
        "<P[[ . | . ]] (x) P[[ (. (. .)) | ((. .) .) ]]"
        " + P[[ (. .) | (. .) ]] (x) P[[ (. .) | (. .) ]]"
        " + P[[ (. (. .)) | ((. .) .) ]] (x) P[[ . | . ]]>"
    )


def test_element_json_is_canonical():
    e = f_element((2, 1)) + f_element((1, 2))
    assert e.to_json() == {
        "basis": "F",
        "terms": [{"coeff": "1", "key": "12"}, {"coeff": "1", "key": "21"}],
    }


def test_f_product_is_the_shifted_shuffle():
    got = f_product(f_element((1,)), f_element((1,)))
    assert got.terms == {(1, 2): Fraction(1), (2, 1): Fraction(1)}
    got = f_product(f_element((1, 2)), f_element((1,)))
    assert got.support() == {(1, 2, 3), (1, 3, 2), (3, 1, 2)}
    assert all(c == 1 for c in got.terms.values())


def test_f_product_unit():
    x = f_element((3, 1, 2))
    assert f_product(one("F"), x) == x
    assert f_product(x, one("F")) == x


def test_f_coproduct_deconcatenates_and_standardizes():
    got = f_coproduct(f_element((2, 1)))
    assert got.terms == {
        ((), (2, 1)): Fraction(1),
        ((1,), (1,)): Fraction(1),
        ((2, 1), ()): Fraction(1),
    }


def test_half_products_split_by_last_letter():
    x = f_element((1,))
    assert f_prec(x, x).terms == {(2, 1): Fraction(1)}
    assert f_succ(x, x).terms == {(1, 2): Fraction(1)}
    y = f_element((1, 2))
    full = f_product(y, x)
    assert (f_prec(y, x) + f_succ(y, x)).terms == full.terms


def test_half_products_match_the_filtered_shuffle():
    # all permutation pairs with |s| + |t| <= 6, an empty factor included
    perms = [p for n in range(7) for p in itertools.permutations(range(1, n + 1))]
    for s, t in itertools.product(perms, repeat=2):
        if len(s) + len(t) > 6:
            continue
        x, y = Element("F", {s: 2}), Element("F", {t: Fraction(1, 3)})
        full = f_product(x, y).terms
        from_left = {p: c for p, c in full.items() if p and p[-1] <= len(s)}
        from_right = {p: c for p, c in full.items() if p and p[-1] > len(s)}
        assert f_prec(x, y).terms == from_left, (s, t)
        assert f_succ(x, y).terms == from_right, (s, t)
    for half in (f_prec, f_succ):
        with pytest.raises(ValueError, match="not a permutation"):
            half(Element("F", {(1, 1): 1}), f_element((1,)))
        with pytest.raises(ValueError, match="not a permutation"):
            half(f_element((1,)), Element("F", {(2,): 1}))


def test_half_coproducts_split_at_the_maximum():
    assert f_coproduct_left(f_element((2, 1))).terms == {((1,), (1,)): Fraction(1)}
    assert f_coproduct_right(f_element((2, 1))).terms == {}
    assert f_coproduct_left(f_element((1, 2))).terms == {}
    assert f_coproduct_right(f_element((1, 2))).terms == {((1,), (1,)): Fraction(1)}


def test_p_to_f_expands_the_class_sum():
    got = p_to_f(J2143)
    assert got.terms == {(2, 1, 4, 3): Fraction(1), (2, 4, 1, 3): Fraction(1)}


def test_theta_is_the_subalgebra_inclusion():
    got = theta(p_element(J2143))
    assert got.terms == {(2, 1, 4, 3): Fraction(1), (2, 4, 1, 3): Fraction(1)}
    assert theta(p_element(J1) + p_element(J12)).support() == {(1,), (1, 2)}


def test_f_collect_to_p_accepts_class_sums():
    x = f_element((2, 1, 4, 3)) + f_element((2, 4, 1, 3))
    assert collect(x) == p_element(J2143)


def test_f_collect_to_p_rejects_partial_sums():
    with pytest.raises(NotInSubalgebraError) as info:
        collect(f_element((2, 1, 4, 3)))
    assert info.value.pair == J2143


def test_collect_names_the_offending_class_on_every_path():
    tensor = Element(("F", "F"), {((2, 1, 4, 3), (1,)): 1, ((2, 4, 1, 3), (1,)): 2})
    with pytest.raises(NotInSubalgebraError) as info:
        collect(tensor)
    assert info.value.pair == (J2143, J1)
    whole = Element(("F", "F"), {((2, 1, 4, 3), (1,)): 3, ((2, 4, 1, 3), (1,)): 3})
    assert collect(whole) == Element(("P", "P"), {(J2143, J1): 3})


def test_p_product_worked_example():
    j312 = p_shape((3, 1, 2))
    got = p_product(j312, J12)
    assert len(got.terms) == 6
    assert all(c == 1 for c in got.terms.values())
    union = set()
    for s in class_of_pair(j312):
        for t in class_of_pair(J12):
            from baxter.words import shifted_shuffle
            union |= shifted_shuffle(s, t)
    assert got.support() == {p_shape(w) for w in union}


def test_p_product_degree_one():
    got = p_product(J1, J1)
    assert got == p_element(J12) + p_element(J21)


def test_p_coproduct_worked_example():
    got = p_coproduct(J2143)
    empty = p_shape(())
    j132 = p_shape((1, 3, 2))
    j312 = p_shape((3, 1, 2))
    j213 = p_shape((2, 1, 3))
    j231 = p_shape((2, 3, 1))
    expected = {
        (empty, J2143): Fraction(1),
        (J1, j132): Fraction(1),
        (J1, j312): Fraction(1),
        (J12, J12): Fraction(1),
        (J21, J21): Fraction(1),
        (j213, J1): Fraction(1),
        (j231, J1): Fraction(1),
        (J2143, empty): Fraction(1),
    }
    assert got.terms == expected


def test_element_product_dispatches_by_basis():
    x = p_element(J1)
    got = element_product(x, x)
    assert got == p_element(J12) + p_element(J21)


def test_element_product_calls_the_module_p_product(monkeypatch):
    calls = []

    def counted(j0, j1):
        calls.append((j0, j1))
        return p_product(j0, j1)

    monkeypatch.setattr(hopf, "p_product", counted)
    x = p_element(J21)
    assert element_product(x, x) == p_product(J21, J21)
    assert calls == [(J21, J21)]


@pytest.mark.parametrize("fn, source, target", [
    (theta, "P", "F"),
    (phi_psi_theta, "P", "Pstar"),
    (phi, "Fstar", "Pstar"),
    (psi, "F", "Fstar"),
    (f_coproduct, "F", ("F", "F")),
    (f_coproduct_left, "F", ("F", "F")),
    (f_coproduct_right, "F", ("F", "F")),
    (fstar_coproduct, "Fstar", ("Fstar", "Fstar")),
])
def test_termwise_maps_check_their_basis_in_linear(fn, source, target):
    wrong = Element("Fstar" if source == "F" else "F", {(1,): 1})
    with pytest.raises(ValueError, match=f"needs an element of basis {source},"):
        fn(wrong)
    assert fn(Element(source)) == Element(target)
    assert hopf.linear(Element(source), source, target, pytest.fail) == Element(target)


def test_linear_multiplies_coefficients():
    x = Element("F", {(1, 2): 2, (2, 1): Fraction(1, 2)})
    out = hopf.linear(x, "F", "Fstar", lambda s: [(s, 3), (s[::-1], 1)])
    assert out == Element("Fstar", {(1, 2): Fraction(13, 2), (2, 1): Fraction(7, 2)})
    assert all(isinstance(c, Fraction) for c in out.terms.values())


def test_products_compute_without_classes_or_collect(monkeypatch):
    expected = collect(f_product(theta(p_element(J2143)), theta(p_element(J21))))

    def refuse(*args):
        raise AssertionError("a product expanded or collected a class")

    monkeypatch.setattr(hopf, "class_of_pair", refuse)
    p_product.cache_clear()
    try:
        assert p_product(J2143, J21) == expected
    finally:
        p_product.cache_clear()


def _pairs_to_total_degree(keys, top):
    return [(k0, k1) for d0 in range(top + 1) for d1 in range(top + 1 - d0)
            for k0 in keys(d0) for k1 in keys(d1)]


def test_p_product_matches_the_f_route_to_total_degree_6():
    pairs = _pairs_to_total_degree(enumerate_tbt, 6)
    assert len(pairs) == 1488
    for j0, j1 in pairs:
        via_f = collect(f_product(theta(p_element(j0)), theta(p_element(j1))))
        assert p_product(j0, j1) == via_f, (pair_str(j0), pair_str(j1))


def _rho_of_interval(t0, t1):
    """The sum of ``rho`` over the rotation interval between the grafts
    ``t0 / t1`` and ``t0 \\ t1``: the image of the sylvester product."""
    interval = tamari_interval(graft_over(t0, t1), graft_under(t0, t1))
    return Element("P", [term for t in interval for term in rho(t).terms.items()])


def test_rho_products_match_the_f_route_to_total_degree_6():
    pairs = _pairs_to_total_degree(all_trees, 6)
    assert len(pairs) == 625
    for t0, t1 in pairs:
        via_f = f_product(theta(rho(t0)), theta(rho(t1)))
        assert theta(_rho_of_interval(t0, t1)) == via_f, (tree_str(t0), tree_str(t1))


def test_p_coproduct_matches_the_f_route_to_degree_6():
    pairs = [j for n in range(7) for j in enumerate_tbt(n)]
    assert len(pairs) == 546
    for j in pairs:
        via_f = collect(f_coproduct(theta(p_element(j))))
        assert p_coproduct(j) == via_f, pair_str(j)


def _phi_tensor(x):
    return hopf.linear(x, ("Fstar", "Fstar"), ("Pstar", "Pstar"),
                       lambda ab: [((p_shape(ab[0]), p_shape(ab[1])), 1)])


def test_pstar_operations_match_the_fstar_route_to_total_degree_5():
    for j0, j1 in _pairs_to_total_degree(enumerate_tbt, 5):
        via_fstar = {phi(fstar_product(fstar_element(s), fstar_element(t)))
                     for s in class_of_pair(j0) for t in class_of_pair(j1)}
        assert via_fstar == {dual_product(j0, j1)}, (pair_str(j0), pair_str(j1))
    for j in [j for n in range(6) for j in enumerate_tbt(n)]:
        via_fstar = {_phi_tensor(fstar_coproduct(fstar_element(s))) for s in class_of_pair(j)}
        assert via_fstar == {dual_coproduct(j)}, pair_str(j)


def test_totally_primitive_bases_are_killed_by_both_f_half_coproducts():
    for n in range(6):
        basis = totally_primitive_basis(n)
        assert len(basis) == verify.TOTALLY_PRIMITIVE_DIMS[n]
        for elem in basis:
            x = theta(elem)
            assert not f_coproduct_left(x) and not f_coproduct_right(x), (n, elem)


def test_coproducts_duals_and_primitives_build_no_permutation_element(monkeypatch):
    pairs = [j for n in range(5) for j in enumerate_tbt(n)]

    def answers():
        return ([repr(p_coproduct(j)) for j in pairs],
                [repr(dual_product(j0, j1))
                 for j0, j1 in _pairs_to_total_degree(enumerate_tbt, 4)],
                [repr(dual_coproduct(j)) for j in pairs],
                [repr(totally_primitive_basis(n)) for n in range(5)])

    expected = answers()

    class PairsOnly(Element):
        __slots__ = ()

        def __init__(self, basis, terms=()):
            if {"F", "Fstar"} & set(hopf._names(basis)):
                raise AssertionError(f"built an element of basis {basis}")
            super().__init__(basis, terms)

    monkeypatch.setattr(hopf, "Element", PairsOnly)
    caches = (p_coproduct, totally_primitive_basis)
    for cached in caches:
        cached.cache_clear()
    try:
        assert answers() == expected
        assert totally_primitive_basis(4) is totally_primitive_basis(4)
        with pytest.raises(AssertionError, match="basis Fstar"):
            fstar_element((1,))
    finally:
        for cached in caches:
            cached.cache_clear()


def test_hopf_caches_are_bounded():
    for cached in (p_product, p_coproduct):
        assert cached.cache_info().maxsize is not None


def _in_normal_form(x):
    """Each coefficient is an int when integral, a Fraction otherwise."""
    return all(
        type(c) is (int if Fraction(c).denominator == 1 else Fraction)
        for c in x.terms.values()
    )


def test_element_coefficients_are_in_exact_normal_form():
    third = Fraction(1, 3)
    x = Element("P", [(J1, third), (J1, 2), (J12, 1)])
    assert x.terms == {J1: Fraction(7, 3), J12: Fraction(1)}
    assert _in_normal_form(x)
    assert Element("P", {J1: third}).terms[J1] == third

    inputs = [
        (3, 3), (True, 1), (Fraction(4, 2), 2), (third, third),
        (0.5, Fraction(1, 2)), (-2.0, -2), ("-3/4", Fraction(-3, 4)), ("5", 5),
    ]
    for given, want in inputs:
        got = Element("P", {J1: given}).terms[J1]
        assert got == want and type(got) is type(want), given
    # values that cancel to an integer are stored as one
    assert (3 * Element("P", {J1: third})).terms == {J1: 1}
    assert Element("P", [(J1, third), (J1, Fraction(2, 3))]).terms == {J1: 1}
    y = Element("P", {J1: Fraction(1, 2), J12: 3})
    derived = [
        -x, x + y, x - y, y + y, 2 * y, Fraction(2) * y, Fraction(1, 3) * y,
        0.5 * y, y * 4, x * y,
    ]
    assert (y + y).terms == {J1: 1, J12: 6}
    assert (0.5 * y).terms == {J1: Fraction(1, 4), J12: Fraction(3, 2)}
    assert all(_in_normal_form(z) for z in derived)

    half = Fraction(1, 2) * p_element(J21)
    products = [element_product(half, 2 * p_element(J12)), p_product(J21, J12)]
    assert products[0] == products[1]
    images = [
        hopf.linear(half, "P", "P", lambda j: [(j, Fraction(4)), (J1, third)]),
        theta(half), f_coproduct(theta(3 * p_element(J21))),
        collect(theta(half)), collect(f_coproduct(p_to_f(J21))),
    ]
    assert images[0].terms == {J21: 2, J1: Fraction(1, 6)}
    assert images[3] == half
    for z in products + images:
        assert _in_normal_form(z)
    for basis in ("E", "H"):
        for n in range(4):
            for table in hopf.order_sum_tables(basis, n):
                for z in table.values():
                    assert all(type(c) is int for c in z.terms.values())

    assert type(x.coeff(J12)) is Fraction and x.coeff(J12) == 1
    assert type(x.coeff(J21)) is Fraction and x.coeff(J21) == 0
    assert x.coeff(J1) == Fraction(7, 3)


def test_elements_are_equal_across_int_and_fraction_coefficients():
    a = Element("P", {J1: Fraction(1), J12: Fraction(-2)})
    b = Element("P", {J1: 1, J12: -2})
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1

    j = p_shape((2, 1, 4, 3))
    members = sorted(class_of_pair(j))
    assert len(members) == 2
    x = Element("F", {members[0]: Fraction(2), members[1]: 2})
    assert collect(x) == Element("P", {j: 2})
    tensor = Element(("F", "F"), {(members[0], (1,)): Fraction(1), (members[1], (1,)): 1})
    assert collect(tensor) == Element(("P", "P"), {(j, J1): 1})


def test_order_sum_bases_round_trip():
    for n in range(4):
        e_table, p_table = hopf.order_sum_tables("E", n)
        h_table, ph_table = hopf.order_sum_tables("H", n)
        for pair in enumerate_tbt(n):
            back = Element("P")
            for key, coeff in p_table[pair].terms.items():
                back = back + coeff * e_table[key]
            assert back == p_element(pair)
            back = Element("P")
            for key, coeff in ph_table[pair].terms.items():
                back = back + coeff * h_table[key]
            assert back == p_element(pair)


def test_order_sum_tables_sum_over_upper_and_lower_sets():
    for n in range(5):
        pairs = enumerate_tbt(n)
        e_table, h_table = (hopf.order_sum_tables(basis, n)[0] for basis in "EH")
        for j in pairs:
            assert e_table[j] == Element(
                "P", {j2: 1 for j2 in pairs if baxter_leq(j, j2)})
            assert h_table[j] == Element(
                "P", {j2: 1 for j2 in pairs if baxter_leq(j2, j)})


@pytest.mark.parametrize("basis", ["E", "H"])
def test_order_sum_tables_need_a_join_for_every_set_of_covers(monkeypatch, basis):
    # Keep only the covers out of the bottom pair of degree 3 (for E) or
    # into the top pair (for H): the two cones at their other ends are
    # then disjoint, so no pair is their join (meet).
    pairs = enumerate_tbt(3)
    bottom, top = pairs.index(p_shape((1, 2, 3))), pairs.index(p_shape((3, 2, 1)))
    real = hopf.hasse

    def covers(n):
        if basis == "E":
            return tuple(row if i == bottom else () for i, row in enumerate(real(n)))
        return tuple(tuple(c for c in row if c[0] == top) for row in real(n))

    monkeypatch.setattr(hopf, "hasse", covers)
    hopf.order_sum_tables.cache_clear()
    try:
        with pytest.raises(InternalInvariantError, match="cone"):
            hopf.order_sum_tables(basis, 3)
    finally:
        hopf.order_sum_tables.cache_clear()


def test_order_sum_products_check_their_input():
    bad = parse_pair("[ ((. (. .)) .) | (. ((. .) .)) ]")
    for product in (e_product, h_product):
        with pytest.raises(ValueError, match="not a twin pair"):
            product(J1, bad)
        with pytest.raises(ValueError, match="PRODUCT_DEGREE_CAP"):
            product(J2143, J2143)


def test_e_product_is_grafting():
    for a, b in [(J1, J1), (J12, J1), (J21, J12)]:
        got = e_product(a, b)
        assert got.terms == {pair_over(a, b): Fraction(1)}


def test_h_product_is_grafting():
    for a, b in [(J1, J1), (J12, J1), (J21, J12)]:
        got = h_product(a, b)
        assert got.terms == {pair_under(a, b): Fraction(1)}


def test_pair_grafting_examples():
    assert pair_over(J1, J1) == J12
    assert pair_under(J1, J1) == J21
    left, right = pair_over(J21, J12)
    from baxter.trees import tree_str
    assert tree_str(left) == "((. .) (. (. .)))"
    assert tree_str(right) == "(((. (. .)) .) .)"


def test_connected_pair_counts():
    assert [len(connected_pairs(n)) for n in range(6)] == [0, 1, 1, 3, 11, 47]


def test_sylv_to_f_sums_the_sylvester_class():
    got = theta(rho(parse_tree("((. .) (. .))")))
    assert got.terms == {(1, 3, 2): Fraction(1), (3, 1, 2): Fraction(1)}


def test_rho_in_f_sums_the_sylvester_class():
    seen = set()
    for n in range(6):
        for p in verify.all_perms(n):
            t = p_shape(p)[1]
            want = Element("F", {s: 1 for s in congruence_class(p, "sylvester")})
            assert theta(rho(t)) == want, p
            seen.add(t)
    assert len(seen) == sum(len(all_trees(n)) for n in range(6))


def test_rho_sums_twin_partners():
    t = parse_tree("((. .) .)")
    assert rho(t) == p_element(parse_pair("[ (. (. .)) | ((. .) .) ]"))
    two_partner = parse_tree("((. .) (. .))")
    got = rho(two_partner)
    assert len(got.terms) == sum(
        1 for pair in enumerate_tbt(3) if pair[1] == two_partner)


def test_rho_sums_the_complementary_canopy_filter_of_all_trees():
    for n in range(1, 7):
        for t in all_trees(n):
            partners = {tl for tl in all_trees(n)
                        if canopies_complementary(canopy(tl), canopy(t))}
            assert rho(t) == Element("P", {(tl, t): 1 for tl in partners})


def test_rho_partners_are_the_canopy_grouping_of_all_trees(monkeypatch):
    monkeypatch.setattr(config, "ENUM_DEGREE_CAP", 8)
    for n in range(1, 9):
        groups = {}
        for t in all_trees(n):
            groups.setdefault(canopy(t), set()).add(t)
        assert len(groups) == 2 ** (n - 1)
        for t in all_trees(n):
            partners = groups[complement_canopy(canopy(t))]
            assert rho(t) == Element("P", {(left, t): 1 for left in partners})


def test_rho_is_capped_by_the_enumeration_degree():
    comb = parse_tree("(" * 300 + "." + " .)" * 300)
    with pytest.raises(ValueError, match="ENUM_DEGREE_CAP"):
        rho(comb)


def test_rho_linear_is_multiplicative_in_low_degree():
    t = parse_tree("(. .)")
    prod_after = element_product(rho(t), rho(t))
    assert prod_after == _rho_of_interval(t, t)
    assert len(prod_after.terms) == 2


def test_fstar_product_arranges_value_subsets():
    got = fstar_product(fstar_element((1, 2)), fstar_element((1,)))
    assert got.support() == {(1, 2, 3), (1, 3, 2), (2, 3, 1)}
    assert all(c == 1 for c in got.terms.values())


def test_fstar_coproduct_splits_by_value_intervals():
    got = fstar_coproduct(fstar_element((3, 1, 2)))
    assert got.terms == {
        ((), (3, 1, 2)): Fraction(1),
        ((1,), (2, 1)): Fraction(1),
        ((1, 2), (1,)): Fraction(1),
        ((3, 1, 2), ()): Fraction(1),
    }


def test_psi_inverts_permutations():
    assert psi(f_element((2, 4, 1, 3))).terms == {(3, 1, 4, 2): Fraction(1)}
    assert psi(f_element((1,))).terms == {(1,): Fraction(1)}


def test_phi_projects_the_dual():
    assert phi(fstar_element((2, 1, 4, 3))).terms == {J2143: Fraction(1)}
    assert phi(fstar_element((2, 4, 1, 3))).terms == {J2143: Fraction(1)}


def test_phi_psi_theta_collision():
    image_a = phi_psi_theta(p_element(J2143))
    image_b = phi_psi_theta(p_element(J3142))
    assert image_a == image_b
    assert image_a.terms == {J2143: Fraction(1), J3142: Fraction(1)}


def test_dual_product_is_representative_independent():
    got = dual_product(J12, J1)
    assert got.terms == {
        p_shape((1, 2, 3)): Fraction(1),
        p_shape((1, 3, 2)): Fraction(1),
        p_shape((2, 3, 1)): Fraction(1),
    }


def test_dual_coproduct_degree_two():
    got = dual_coproduct(J12)
    empty = p_shape(())
    assert got.terms == {
        (empty, J12): Fraction(1),
        (J1, J1): Fraction(1),
        (J12, empty): Fraction(1),
    }


def test_totally_primitive_dimensions():
    assert [len(totally_primitive_basis(n)) for n in range(1, 5)] == [1, 0, 1, 4]


def test_degree_three_primitive_element():
    basis = totally_primitive_basis(3)
    assert len(basis) == 1
    elem = basis[0]
    expected = p_element(p_shape((2, 3, 1))) - p_element(p_shape((1, 3, 2)))
    scale = elem.coeff(p_shape((2, 3, 1)))
    assert scale != 0
    assert elem == scale * expected


def test_primitives_have_vanishing_half_coproducts():
    for elem in totally_primitive_basis(3) + totally_primitive_basis(4):
        x = theta(elem)
        assert f_coproduct_left(x).terms == {}
        assert f_coproduct_right(x).terms == {}


def test_baxter_numbers():
    assert baxter_numbers(7) == [1, 1, 2, 6, 22, 92, 422, 2074]


def test_series_suite_passes():
    checks = verify.series_suite(4)
    assert checks and all(check.ok for check in checks)
    with pytest.raises(ValueError, match="nonnegative"):
        verify.series_check(-1)


def test_pair_grafts_of_deep_pairs_at_the_default_recursion_limit():
    n = 2000
    up, down = tuple(range(1, n + 1)), tuple(range(n, 0, -1))
    # Grafting each pair on itself walks a spine n nodes deep in both
    # trees, and gives the pair of the word twice as long.
    cases = [
        (pair_over, p_shape(up), p_shape(tuple(range(1, 2 * n + 1)))),
        (pair_under, p_shape(down), p_shape(tuple(range(2 * n, 0, -1)))),
    ]
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)  # CPython's default
    try:
        for graft, j, doubled in cases:
            assert pair_str(graft(j, j)) == pair_str(doubled)
    finally:
        sys.setrecursionlimit(limit)


def test_degree_caps_guard_expensive_calls():
    big = p_shape(tuple(range(1, 5)))
    small = p_shape(tuple(range(1, 4)))
    with pytest.raises(ValueError, match="PRODUCT_DEGREE_CAP"):
        p_product(big, small)


def test_capped_products_check_the_degree_before_hashing_a_deep_pair():
    # The cached products hash their pairs, and hashing a tree this deep
    # recurses far enough in C to crash the interpreter, so each of the
    # six capped products must reject it by degree first.
    script = """
from baxter import hopf
from baxter.insertion import p_shape
j = p_shape(tuple(range(1, 300001)))
for name, args in (("p_product", (j, j)), ("p_coproduct", (j,)),
                   ("e_product", (j, j)), ("h_product", (j, j)),
                   ("dual_product", (j, j)), ("dual_coproduct", (j,))):
    try:
        getattr(hopf, name)(*args)
    except ValueError as exc:
        print(name, exc)
"""
    src = os.path.dirname(os.path.dirname(hopf.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        timeout=120, env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert [line.split()[0] for line in lines] == [
        "p_product", "p_coproduct", "e_product", "h_product",
        "dual_product", "dual_coproduct"]
    assert all("exceeds PRODUCT_DEGREE_CAP" in line for line in lines)


@pytest.mark.parametrize("fn, args, kwargs", [
    (enumerate_tbt, (5,), {"n": 5}),
    (hasse, (5,), {"n": 5}),
    (hopf.order_sum_tables, ("E", 5), {"basis": "E", "n": 5}),
    (hopf.connected_pairs, (5,), {"n": 5}),
    (rho, (T5,), {"t": T5}),
], ids=["enumerate_tbt", "hasse", "order_sum_tables", "connected_pairs", "rho"])
def test_enumeration_caps_hold_for_answers_cached_under_a_higher_cap(
        monkeypatch, fn, args, kwargs):
    monkeypatch.setattr(config, "ENUM_DEGREE_CAP", 4)
    with pytest.raises(ValueError, match="ENUM_DEGREE_CAP=4"):
        fn(*args)
    monkeypatch.setattr(config, "ENUM_DEGREE_CAP", 5)
    fn(*args)
    assert fn(*args) is fn(*args)  # cached
    assert fn(**kwargs) == fn(*args)  # keyword calls as before the cap moved out
    monkeypatch.setattr(config, "ENUM_DEGREE_CAP", 4)
    for call in (lambda: fn(*args), lambda: fn(**kwargs)):
        with pytest.raises(ValueError, match="ENUM_DEGREE_CAP=4"):
            call()


@pytest.mark.parametrize("fn, head", [
    (enumerate_tbt, ()),
    (hasse, ()),
    (connected_pairs, ()),
    (hopf.order_sum_tables, ("E",)),
    (hopf.order_sum_tables, ("H",)),
    (totally_primitive_basis, ()),
    (baxter_numbers, ()),
], ids=["enumerate_tbt", "hasse", "connected_pairs", "order_sum_tables_E",
        "order_sum_tables_H", "totally_primitive_basis", "baxter_numbers"])
def test_degree_entry_points_refuse_bad_degrees_before_any_enumeration(
        monkeypatch, fn, head):
    enumerated = []

    def spy(n):
        enumerated.append(n)
        return enumerate_tbt(n)

    monkeypatch.setattr("baxter.lattice.enumerate_tbt", spy)
    monkeypatch.setattr(hopf, "enumerate_tbt", spy)
    if hasattr(fn, "cache_clear"):
        fn.cache_clear()
    for warm in (False, True):
        if warm:
            fn(*head, 2)
        enumerated.clear()
        with pytest.raises(ValueError, match="^n must be nonnegative$"):
            fn(*head, -1)
        with pytest.raises(ValueError, match="ENUM_DEGREE_CAP"):
            fn(*head, 8)
        assert enumerated == []


def test_capped_p_product_keeps_its_cache_counters():
    before = p_product.cache_info()
    p_product(J1, J12)
    p_product(J1, J12)
    after = p_product.cache_info()
    assert after.hits > before.hits
    assert after.currsize >= 1
