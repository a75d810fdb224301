"""The Hopf-algebra layer.

Summing the permutations of each baxter congruence class gives the basis
``P`` of a Hopf subalgebra of the permutation algebra, indexed by twin
pairs, with the order-sum bases ``E`` and ``H`` on top of it.  The
graded dual carries the quotient basis ``Pstar``.  The sylvester class
sums (shapes of single right trees) embed in P via ``rho``, the sum over
twin partners.  Every structure constant follows a rule on classes: a
product of class sums, the paper's rule, and ``rho`` sum P over lattice
intervals (:func:`~baxter.lattice.baxter_interval`); the P coproduct
cuts the members of a class where both halves are least in their
classes; the Pstar product and coproduct spread and cut the least
member of each class.  The permutation bases ``F`` and ``Fstar`` keep
their key products here, so that their elements multiply, but the maps
through them are the oracles of :mod:`baxter.verify`.

Elements are finite rational linear combinations of keys in one named
basis; a tensor is an :class:`Element` whose basis is a tuple of names
and whose keys are tuples of keys.  Coefficients are exact and in one
normal form: an ``int`` when the value is integral, a
``fractions.Fraction`` otherwise, never a ``float``.  Nearly every
coefficient of this algebra is an integer, so products and changes of
basis run in ``int`` arithmetic; every division is made in ``Fraction``.
Terms are kept in no particular order and are put in canonical (degree,
key text) order only when printed.

One table, ``_BASES``, names the key kind and the key product of each
basis.  Every termwise map between bases (the F and Fstar maps of
:mod:`baxter.verify`) is :func:`linear`, the one change of basis and the
one check of its input's basis.

Only the algebra itself is here.  The brute-force checks of it, the
generating-series identities among them, are in :mod:`baxter.verify`.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import reduce
from operator import or_

from . import config
from .errors import InternalInvariantError
from .exactlin import RationalMatrix, kernel_basis, rational_str
from .insertion import (
    _greedy_walk,
    baxter_representative,
    check_twin_pair,
    class_of_pair,
    is_twin_pair,
    min_perm,
    p_shape,
)
from .lattice import baxter_interval, enumerate_tbt, hasse, positions
from .perms import is_connected
from .trees import (
    graft_over,
    graft_under,
    infix_edges,
    pair_str,
    size as tree_size,
    tamari_vector,
)
from .words import shifted_shuffle, standardize, word_str

# basis name -> (what its keys are, name of the product of two keys).
# Names resolve at call time, so a wrapper set on the module sees every call.
_BASES = {
    "F": ("perm", "_f_key_product"),
    "Fstar": ("perm", "_fstar_key_product"),
    "P": ("pair", "p_product"),
    "E": ("pair", "e_product"),
    "H": ("pair", "h_product"),
    "Pstar": ("pair", "dual_product"),
}


def key_degree(basis: str, key) -> int:
    return len(key) if _BASES[basis][0] == "perm" else tree_size(key[0])


def key_str(basis: str, key) -> str:
    return word_str(key) if _BASES[basis][0] == "perm" else pair_str(key)


def _names(basis):
    """The basis name of each factor: one for a plain basis, one per
    factor for a tensor."""
    return (basis,) if isinstance(basis, str) else basis


def _exact(value):
    """``value`` as an exact rational in normal form: an ``int`` when it
    is integral, a ``Fraction`` otherwise."""
    if type(value) is int:
        return value
    value = Fraction(value)
    # not ``is_integer()``, which ``Fraction`` only has from Python 3.12
    return value.numerator if value.denominator == 1 else value


class Element:
    """A finitely supported map from basis keys to nonzero rationals.

    ``basis`` is either one basis name, whose keys are plain basis keys,
    or a tuple of names for a tensor, whose keys are tuples holding one
    basis key per factor.  Mixed degrees are fine.  ``terms`` is a plain
    dict in no particular order; :meth:`canonical_terms` puts it in the
    canonical (degree, key text) order, which is how every printed form
    lists terms, so equal elements print identically.  Each coefficient
    is an ``int`` when it is integral and a ``Fraction`` otherwise (see
    :func:`_exact`); a ``float`` input becomes the ``Fraction`` of its
    exact binary value.
    """

    __slots__ = ("basis", "terms")

    def __init__(self, basis, terms=()):
        if not isinstance(basis, str):
            basis = tuple(basis)
        for name in _names(basis):
            if name not in _BASES:
                raise ValueError(f"unknown basis {name!r}")
        acc = {}
        items = terms.items() if hasattr(terms, "items") else terms
        normal = True  # every coefficient a nonzero int, and no key twice
        for key, coeff in items:
            if type(coeff) is not int or not coeff:
                coeff = _exact(coeff)
                normal = False
            old = acc.get(key)
            if old is None:
                acc[key] = coeff
            else:
                acc[key] = old + coeff
                normal = False
        if not normal:
            # drop the zeros and put Fraction sums in normal form in
            # place: copying would hash every key again
            for key in [k for k, c in acc.items() if not c or type(c) is not int]:
                c = _exact(acc[key])
                if c:
                    acc[key] = c
                else:
                    del acc[key]
        self.basis = basis
        self.terms = acc

    def __eq__(self, other):
        return (
            isinstance(other, Element)
            and self.basis == other.basis
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.basis, frozenset(self.terms.items())))

    def __bool__(self):
        return bool(self.terms)

    def __add__(self, other):
        if not isinstance(other, Element) or other.basis != self.basis:
            raise ValueError("can only add elements of the same basis")
        return Element(
            self.basis, itertools.chain(self.terms.items(), other.terms.items())
        )

    def __neg__(self):
        return Element(self.basis, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __rmul__(self, scalar):
        scalar = _exact(scalar)
        return Element(self.basis, {k: scalar * c for k, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, Element):
            return element_product(self, other)
        return self.__rmul__(other)

    def coeff(self, key) -> Fraction:
        """The coefficient at ``key`` (0 off the support), always as a
        ``Fraction``, whichever form ``terms`` holds it in."""
        return Fraction(self.terms.get(key, 0))

    def support(self):
        return set(self.terms)

    def canonical_terms(self):
        """``(texts, coeff)`` per term, ``texts`` holding one key text per
        factor, sorted by the factor degrees and then by the texts."""
        tensor = not isinstance(self.basis, str)
        rows = []
        for key, c in self.terms.items():
            factors = tuple(zip(_names(self.basis), key if tensor else (key,)))
            degrees = tuple(key_degree(b, k) for b, k in factors)
            rows.append((degrees, tuple(key_str(b, k) for b, k in factors), c))
        rows.sort(key=lambda row: row[:2])
        return [(texts, c) for _, texts, c in rows]

    def __repr__(self):
        names = _names(self.basis)
        if not self.terms:
            return f"<0 in {'x'.join(names)}>"
        bits = []
        for texts, c in self.canonical_terms():
            coeff = "" if c == 1 else ("-" if c == -1 else rational_str(c) + "*")
            body = " (x) ".join(f"{b}[{t}]" for b, t in zip(names, texts))
            bits.append(f"{coeff}{body}")
        return "<" + " + ".join(bits).replace("+ -", "- ") + ">"

    def to_json(self):
        tensor = not isinstance(self.basis, str)
        return {
            "basis": list(self.basis) if tensor else self.basis,
            "terms": [
                {"coeff": rational_str(c), "key": list(texts) if tensor else texts[0]}
                for texts, c in self.canonical_terms()
            ],
        }


def one(basis: str) -> Element:
    """The unit element (empty key) of a basis."""
    key = () if _BASES[basis][0] == "perm" else (None, None)
    return Element(basis, {key: 1})


def p_element(pair, coeff=1) -> Element:
    return Element("P", {check_twin_pair(pair): coeff})


def linear(x: Element, source, target, image) -> Element:
    """Extend a map on basis keys linearly: the one termwise change of basis.

    ``image(key)`` lists ``(key', d)`` pairs in ``target`` for a key of
    ``source``; each term ``c`` of ``x`` at ``key`` becomes ``c * d`` at
    each ``key'``.  Raises ``ValueError`` unless ``x`` is in ``source``.
    """
    if x.basis != source:
        raise ValueError(f"needs an element of basis {source}, not {x.basis}")
    # most images are unit: skip ``c * 1``, a costly multiply when ``c``
    # is a Fraction
    return Element(target, [
        (k, c if d == 1 else c * d) for key, c in x.terms.items() for k, d in image(key)])


# ---------------------------------------------------------------------------
# the permutation bases: key products only


def _f_key_product(s, t) -> Element:
    return Element("F", {p: 1 for p in shifted_shuffle(s, t)})


def _spreads(s, t):
    """Each permutation that is ``s`` on some ``len(s)`` values, in their
    order, followed by ``t`` on the rest: C(m+n, m) of them, the terms of
    the Fstar product of ``s`` and ``t``."""
    universe = range(1, len(s) + len(t) + 1)
    for chosen in itertools.combinations(universe, len(s)):
        taken = set(chosen)
        rest = [v for v in universe if v not in taken]
        yield tuple(chosen[a - 1] for a in s) + tuple(rest[a - 1] for a in t)


def _value_cuts(s):
    """``(s on the values 1..k, s on the values above k lowered by k)``
    for k = 0..len(s): the terms of the Fstar coproduct of ``s``."""
    for k in range(len(s) + 1):
        yield tuple(a for a in s if a <= k), tuple(a - k for a in s if a > k)


def _fstar_key_product(s, t) -> Element:
    return Element("Fstar", {p: 1 for p in _spreads(s, t)})


# ---------------------------------------------------------------------------
# the P basis: class sums over twin pairs


def _check_degree(*pairs):
    config.check_product_degree(sum(tree_size(j[0]) for j in pairs))


# Cache an operation on twin pairs, checking the degree cap first, on
# hits too: the cache hashes the pairs, which recurses in C and crashes on
# deep enough trees.  `bx verify all --max-n 6` asks for 1,488 products
# and 546 coproducts.
_capped_cache = config.capped_cache(_check_degree, maxsize=2048)


@_capped_cache
def p_product(j0, j1) -> Element:
    """Product of two P basis elements: P summed over the lattice interval
    [``pair_over``, ``pair_under``], the paper's rule."""
    return Element("P", dict.fromkeys(baxter_interval(pair_over(j0, j1), pair_under(j0, j1)), 1))


def _least_cuts(j):
    """``(i, top, (a, b))`` for each member ``s`` of the class of ``j``
    and each cut ``i`` = 0..n whose standardized halves are the least
    members of their classes ``a`` and ``b``; ``top`` tells whether the
    value n lies in ``s[:i]``.

    Each order ideal of the class order, with a class on each side of
    it, is met by exactly one member: the two least members spread over
    the ideal.  So the cuts at ``(a, b)`` count the coefficient of
    P[a] (x) P[b] in the coproduct of P[j].
    """
    for s in class_of_pair(j):
        for i in range(len(s) + 1):
            a, b = standardize(s[:i]), standardize(s[i:])
            ja, jb = p_shape(a), p_shape(b)
            if min_perm(ja) == a and min_perm(jb) == b:
                yield i, len(s) in s[:i], (ja, jb)


@_capped_cache
def p_coproduct(j) -> Element:
    """Coproduct of a P basis element in P(x)P: one term per cut of a
    member of the class whose halves are least in their classes."""
    return Element(("P", "P"), [(key, 1) for _, _, key in _least_cuts(j)])


# ---------------------------------------------------------------------------
# the order-sum bases E and H


def _check_tables(basis, n):
    if basis not in ("E", "H"):
        raise ValueError(f"not an order-sum basis: {basis!r}")
    config.check_enum_degree(n)


@config.capped_cache(_check_tables)
def order_sum_tables(basis: str, n: int):
    """Degree-n base-change tables between an order-sum basis and P.

    ``basis`` is ``"E"``, which sums P over upper sets of the lattice, or
    ``"H"``, which sums over lower sets.  Returns ``(forward, inverse)``:
    ``forward[j]`` expands the ``basis`` element at ``j`` in P, and
    ``inverse[j]`` expands P at ``j`` in ``basis``.

    Both come from the covers of :func:`~baxter.lattice.hasse`: E edges
    run up them, H edges down.  A cone is a bit set over the positions of
    :func:`~baxter.lattice.enumerate_tbt`, its own bit ORed with the
    cones at its edge ends.  By Rota's crosscut rule, ``inverse[j]`` sums
    ``(-1)**len(S)`` times the element at the pair whose cone is the AND
    of the cones in ``S`` (the join of ``S``, or meet for H), over the
    sets ``S`` of edge ends of ``j``.
    """
    pairs = enumerate_tbt(n)
    up = [(i, k) for i, covers in enumerate(hasse(n)) for k, _ in covers]
    edges = [[] for _ in pairs]
    for a, b in up if basis == "E" else [(b, a) for a, b in up]:
        edges[a].append(b)
    # Covers rotate the left tree left and the right tree right, so this
    # height grows along every cover; a cone's edge ends come first.
    height = [sum(tamari_vector(j[1])) - sum(tamari_vector(j[0])) for j in pairs]
    cones = [0] * len(pairs)
    for i in sorted(range(len(pairs)), key=height.__getitem__, reverse=basis == "E"):
        cones[i] = reduce(or_, [cones[k] for k in edges[i]], 1 << i)
    at_cone = {cone: pairs[i] for i, cone in enumerate(cones)}
    forward, inverse = {}, {}
    for i, j in enumerate(pairs):
        forward[j] = Element("P", [(pairs[k], 1) for k in positions(cones[i])])
        terms = [(cones[i], 1)]
        for k in edges[i]:
            terms += [(cone & cones[k], -sign) for cone, sign in terms]
        try:
            inverse[j] = Element(basis, [(at_cone[cone], sign) for cone, sign in terms])
        except KeyError:
            raise InternalInvariantError(f"no cone for covers of {pair_str(j)}") from None
    return forward, inverse


def e_product(j0, j1) -> Element:
    """Product of two E basis elements: the single graft ``E[pair_over]``."""
    _check_degree(j0, j1)
    return Element("E", {pair_over(j0, j1): 1})


def h_product(j0, j1) -> Element:
    """Product of two H basis elements: the single graft ``H[pair_under]``."""
    _check_degree(j0, j1)
    return Element("H", {pair_under(j0, j1): 1})


# ---------------------------------------------------------------------------
# pair grafting and connected pairs


def _graft_pairs(j0, j1, left, right):
    check_twin_pair(j0)
    check_twin_pair(j1)
    out = (left(j0[0], j1[0]), right(j0[1], j1[1]))
    if not is_twin_pair(out):
        raise InternalInvariantError("grafting twin pairs lost complementarity")
    return out


def pair_over(j0, j1):
    """Graft twin pairs: left trees under, right trees over."""
    return _graft_pairs(j0, j1, graft_under, graft_over)


def pair_under(j0, j1):
    """Graft twin pairs: left trees over, right trees under."""
    return _graft_pairs(j0, j1, graft_over, graft_under)


@config.capped_cache(config.check_enum_degree)
def connected_pairs(n: int) -> frozenset:
    """Twin pairs whose Baxter representative is connected.

    >>> [len(connected_pairs(k)) for k in range(1, 5)]
    [1, 1, 3, 11]
    """
    return frozenset(
        j for j in enumerate_tbt(n) if is_connected(baxter_representative(j))
    )


# ---------------------------------------------------------------------------
# the embedding of the sylvester (single right tree) class sums


# `bx verify all --max-n 5` asks for 420 embeddings of 196 trees.
@config.capped_cache(lambda t: config.check_enum_degree(tree_size(t)), maxsize=256)
def rho(t) -> Element:
    """Embed a sylvester class: the sum of P over all twin partners of ``t``.

    Its class, the permutations whose right tree is ``t``, is a weak-order
    interval, so this is the lattice interval between the shapes of its
    least and greatest members: the greedy walks of the order that puts
    each child of ``t`` before its parent.  The degree of ``t`` is capped.
    """
    n, edges = infix_edges(t)
    covers = [(child, parent) for parent, child in edges]
    least = _greedy_walk(n, covers, lambda ready, placed: 0)
    greatest = _greedy_walk(n, covers, lambda ready, placed: -1)
    return Element("P", dict.fromkeys(baxter_interval(p_shape(least), p_shape(greatest)), 1))


# ---------------------------------------------------------------------------
# the graded dual


def dual_product(j0, j1) -> Element:
    """Product of two Pstar basis elements: the classes of the spreads of
    the least members of the two classes (any members give the same)."""
    _check_degree(j0, j1)
    return Element("Pstar", [(p_shape(s), 1) for s in _spreads(min_perm(j0), min_perm(j1))])


def dual_coproduct(j) -> Element:
    """Coproduct of a Pstar basis element: the classes of the value cuts
    of the least member of the class (any member gives the same)."""
    _check_degree(j)
    return Element(("Pstar", "Pstar"), [
        ((p_shape(low), p_shape(high)), 1) for low, high in _value_cuts(min_perm(j))])


# ---------------------------------------------------------------------------
# totally primitive elements and the Baxter numbers


@config.capped_cache(config.check_enum_degree)
def totally_primitive_basis(n: int) -> tuple:
    """A basis of degree-n P-combinations killed by both half coproducts.

    Computed exactly: the proper cuts of :func:`p_coproduct`, split by
    whether the value n lies before the cut, are the two half coproducts
    in P(x)P coordinates; stack them over all degree-n twin pairs and
    take the kernel.  Every call at ``n`` shares one tuple.
    """
    if n == 0:
        return ()
    pairs = enumerate_tbt(n)
    rows = {}
    entries = {}
    for col, j in enumerate(pairs):
        for i, top, key in _least_cuts(j):
            if 0 < i < n:
                at = (rows.setdefault((top, key), len(rows)), col)
                entries[at] = entries.get(at, 0) + 1
    matrix = RationalMatrix(len(rows), len(pairs), entries)
    return tuple(
        Element("P", {pairs[i]: v for i, v in enumerate(vec) if v})
        for vec in kernel_basis(matrix)
    )


def baxter_numbers(nmax: int):
    """Twin pair counts for n = 0..nmax.

    >>> baxter_numbers(5)
    [1, 1, 2, 6, 22, 92]
    """
    config.check_enum_degree(nmax)
    return [len(enumerate_tbt(k)) for k in range(nmax + 1)]


# ---------------------------------------------------------------------------
# generic bilinear machinery


def element_product(x: Element, y: Element) -> Element:
    """Multiply two elements over the same basis, bilinearly; tensors
    multiply factor by factor."""
    if not isinstance(y, Element) or x.basis != y.basis:
        raise ValueError("can only multiply elements of the same basis")
    products = [globals()[_BASES[name][1]] for name in _names(x.basis)]
    acc = []
    if isinstance(x.basis, str):
        (product,) = products
        for a, c in x.terms.items():
            for b, d in y.terms.items():
                cd = c * d
                acc += [(k, cd if e == 1 else cd * e) for k, e in product(a, b).terms.items()]
        return Element(x.basis, acc)
    for a, c in x.terms.items():
        for b, d in y.terms.items():
            factors = [fn(ak, bk).terms.items() for fn, ak, bk in zip(products, a, b)]
            for combo in itertools.product(*factors):
                coeff = c * d
                for _, factor_coeff in combo:
                    coeff *= factor_coeff
                acc.append((tuple(k for k, _ in combo), coeff))
    return Element(x.basis, acc)

