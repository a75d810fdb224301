"""The three workloads: seeded request streams, the operations they send
to the library, and the checks made on each output.

A workload object is made per session from the imported library modules
and the run seed, so every session of a run gets the same stream.
``setup`` does the work that comes before the first timed request,
``requests`` yields an endless seeded stream, ``run`` sends one request
to the library, and ``canonical`` and ``check`` judge the output outside
the timed span.  Inputs are made here from the seed alone; the library
only receives them.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import random
import sys
from typing import NamedTuple

import combinatorics as comb


class Request(NamedTuple):
    kind: str
    args: tuple
    tags: frozenset = frozenset()


def _permutation(rng, n):
    p = list(range(1, n + 1))
    rng.shuffle(p)
    return tuple(p)


def _word_with_repeats(rng, n):
    alphabet = max(2, round(n * rng.uniform(0.1, 0.6)))
    return tuple(rng.randint(1, alphabet) for _ in range(n))


def _spread(rng, count, lo, hi, log=False):
    """``count`` integers from the uniform (or log-uniform) law on
    [lo, hi], one from each of ``count`` equal-probability strata, in
    random order.  Stratifying keeps the mix of costly and cheap inputs
    the same from seed to seed, so runs on different seeds agree."""
    a, b = (math.log(lo), math.log(hi)) if log else (lo - 0.5, hi + 0.5)
    out = []
    for j in range(count):
        x = a + (j + rng.random()) / count * (b - a)
        out.append(min(hi, max(lo, round(math.exp(x) if log else x))))
    rng.shuffle(out)
    return out


def _with_repeats(rng, blocks, repeats, key, eligible=lambda req: True, recent=32):
    """Each block of fresh requests with ``repeats`` repeats mixed in.

    The originals are a systematic sample of the ``eligible`` requests of
    the block sorted by ``key``, so every kind of request is repeated in
    proportion; each repeat comes at most ``recent`` requests after its
    original.
    """
    for block in blocks:
        order = sorted((i for i in range(len(block)) if eligible(block[i])),
                       key=lambda i: key(block[i]))
        step = len(order) / repeats
        start = rng.random() * step
        later = [[] for _ in block]
        for k in range(repeats):
            i = order[int(start + k * step)]
            later[min(len(block) - 1, i + rng.randint(0, recent - 1))].append(i)
        for i, req in enumerate(block):
            yield req
            for j in later[i]:
                yield block[j]._replace(tags=block[j].tags | {"repeat"})


def _dumps(value):
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


# ---------------------------------------------------------------------------
# words: insertion, classes and the Baxter test, as `bx insert`, `bx class`
# and `bx check-baxter` do them


class Words:
    """Requests that mirror ``bx insert``, ``bx class`` and
    ``bx check-baxter``.  Tree insertion, the O(n^3) Baxter scan and the
    ``p_shape`` cache do nearly all the work; ``hopf`` does none."""

    name = "words"
    # Per block of 200 fresh requests (in random order) plus 50 repeats.
    REPEATS = 50
    # Deep words cost up to seconds each, so their lengths are fixed, one
    # per quarter of [400, 2000] at its midpoint, and they are not repeated:
    # every block then costs about the same.
    DEEP = (600, 1000, 1400, 1800)
    # Deep words nest trees about as deep as they are long; the library's
    # recursive kernels need a limit above their length to finish them.
    RECURSION_LIMIT = 10_000
    INSERT = (50, 4, 1000)  # for permutations and again for words; log-uniform
    CLASS_PERM = (24, 6, 10)  # uniform
    CLASS_WORD = (26, 4, 8)  # uniform, over 2-3 letters
    CHECK = (23, 23, 8, 240)  # separable, uniform; log-uniform length
    DESCRIPTORS = {
        "block": "200 fresh requests in random order plus 50 repeats of a "
                 "sample of the non-deep ones stratified by kind and length, "
                 "each within 32 requests of its original; lengths are "
                 "stratified too",
        "op_mix": {"insert": 0.52, "class_perm": 0.12, "class_word": 0.13,
                   "check": 0.23},
        "insert": "50 permutations and 50 words over an alphabet of 10-60 % "
                  "of the length, length log-uniform in [4, 1000]",
        "class_perm": "24 permutations, length uniform in [6, 10]",
        "class_word": "26 words over 2-3 letters, length uniform in [4, 8]",
        "check": "23 random separable (hence Baxter) and 23 uniform "
                 "permutations, length log-uniform in [8, 240]",
        "deep_share": 4 / 250,
        "deep": "4 inserts of increasing or decreasing 1..L with L/100 "
                "adjacent swaps, L = 600, 1000, 1400 and 1800 (the midpoints "
                "of the quarters of [400, 2000]); never repeated",
        "deep_max_len": 1800,
        "recursion_limit": 10_000,
        "repeat_share": 0.2,
    }

    def __init__(self, bx, seed, sizes=None):
        self.bx = bx
        self.rng = random.Random(f"words:{seed}")
        self.render = _render_insert
        self.class_sizes = comb.ClassSizes()

    def setup(self):
        sys.setrecursionlimit(max(sys.getrecursionlimit(), self.RECURSION_LIMIT))

    def requests(self):
        return _with_repeats(self.rng, iter(self._block, None), self.REPEATS,
                             key=lambda r: (r.kind, sorted(r.tags), len(r.args[0])),
                             eligible=lambda r: "deep" not in r.tags)

    def _block(self):
        rng = self.rng
        block = [Request("insert", (self._deep(n),), frozenset({"deep"}))
                 for n in self.DEEP]
        count, lo, hi = self.INSERT
        for make in (_permutation, _word_with_repeats):
            block += [Request("insert", (make(rng, n),))
                      for n in _spread(rng, count, lo, hi, log=True)]
        count, lo, hi = self.CLASS_PERM
        block += [Request("class_perm", (_permutation(rng, n),))
                  for n in _spread(rng, count, lo, hi)]
        count, lo, hi = self.CLASS_WORD
        for n in _spread(rng, count, lo, hi):
            alphabet = rng.randint(2, 3)
            block.append(Request("class_word",
                                 (tuple(rng.randint(1, alphabet) for _ in range(n)),)))
        separable, uniform, lo, hi = self.CHECK
        block += [Request("check", (comb.separable(n, rng),), frozenset({"separable"}))
                  for n in _spread(rng, separable, lo, hi, log=True)]
        block += [Request("check", (_permutation(rng, n),))
                  for n in _spread(rng, uniform, lo, hi, log=True)]
        rng.shuffle(block)
        return block

    def _deep(self, n):
        w = list(range(1, n + 1))
        for _ in range(n // 100):
            i = self.rng.randrange(n - 1)
            w[i], w[i + 1] = w[i + 1], w[i]
        if self.rng.random() < 0.5:
            w.reverse()
        return tuple(w)

    def run(self, req):
        ins = self.bx["insertion"]
        (u,) = req.args
        if req.kind == "insert":
            left, right = ins.p_symbol(u)
            q = ins.q_symbol(u)
            shape = ins.p_shape(u)
            return shape, self.render(self.bx["trees"], left, right, shape, q)
        if req.kind == "class_perm":
            pair = ins.p_shape(u)
            members = sorted(ins.class_of_pair(pair))
            return pair, members, ins.baxter_representative(pair)
        if req.kind == "class_word":
            return sorted(self.bx["congruence"].congruence_class(u, "baxter"))
        return self.bx["perms"].is_baxter(u)

    def canonical(self, req, out):
        if req.kind == "insert":
            return _dumps(out[1])
        if req.kind == "class_perm":
            return _dumps([out[1], out[2]])
        return _dumps(out)

    def check(self, req, out):
        (u,) = req.args
        if req.kind == "insert":
            shape, text = out
            if not comb.is_twin_pair(shape, len(u)):
                return "shape is not a twin pair of the word's length"
            if text["pair"] != comb.pair_text(shape):
                return "pair text does not match the shape"
            if (text["left_canopy"], text["right_canopy"]) != tuple(map(comb.canopy, shape)):
                return "canopies do not match the shape"
            if not comb.is_linear_extension(comb.standardize(u), comb.class_poset(shape)):
                return "the word is not in its own class"
        elif req.kind == "class_perm":
            pair, members, rep = out
            found = set(members)
            if len(found) != len(members) or len(members) != self.class_sizes(pair):
                return "class size differs from the linear-extension count"
            relations = comb.class_poset(pair)
            if u not in found or rep not in found:
                return "the word or its representative is missing from the class"
            if not all(comb.is_linear_extension(s, relations) for s in members):
                return "a member does not have the class's shape"
            if not comb.is_baxter(rep):
                return "the representative is not Baxter"
        elif req.kind == "class_word":
            if u not in out or len(set(out)) != len(out):
                return "the word is missing from its class, or members repeat"
            if any(sorted(w) != sorted(u) for w in out):
                return "a member is not a rearrangement of the word"
        else:
            expected = "separable" in req.tags or comb.is_baxter(u)
            if out is not expected:
                return f"is_baxter returned {out!r}, expected {expected!r}"
        return None


def _render_insert(trees, left, right, shape, q):
    """The text forms ``bx insert`` prints."""
    return {
        "left_tree": trees.ltree_str(left),
        "right_tree": trees.ltree_str(right),
        "pair": trees.pair_str(shape),
        "left_canopy": trees.canopy(shape[0]),
        "right_canopy": trees.canopy(shape[1]),
        "q_tree": trees.ltree_str(q),
    }


# ---------------------------------------------------------------------------
# algebra: products and coproducts of class sums


class Algebra:
    """Hopf queries on twin pairs drawn uniformly per degree.  The
    F-expansion (shuffles collected into class sums) and element
    re-sorting do most of the work; insertion of long words does none."""

    name = "algebra"
    PRODUCT_DEGREE_CAP = 10
    # Per block of 60 fresh requests plus 30 re-asked from a hot set (a
    # block made at the start), in random order; degrees are stratified.
    BLOCK = (("p_product", 15), ("dual_product", 12), ("p_coproduct", 9),
             ("dual_coproduct", 6), ("e_product", 9), ("h_product", 9))
    REPEATS = 30
    DEGREES = {"p_product": (6, 10), "dual_product": (6, 10),
               "p_coproduct": (5, 7), "dual_coproduct": (5, 7),
               "e_product": (4, 6), "h_product": (4, 6)}
    MAX_OPERAND = 6
    DESCRIPTORS = {
        "block": "60 fresh requests plus 30 re-asked from a hot set of 60 "
                 "made the same way, in random order; degrees are stratified",
        "op_mix": {kind: count / 60 for kind, count in BLOCK},
        "degrees": "total degree uniform in [6, 10] for p_product and "
                   "dual_product, [5, 7] for coproducts, [4, 6] for e_product "
                   "and h_product; split uniform with operands of degree 1-6",
        "operands": "uniform over the twin pairs of each degree",
        "hot_share": 1 / 3,
        "hot_set": 60,
        "warm_up": "one E and one H product per split of degree 6 and per "
                   "total degree 2-5, from a separate seed",
    }

    def __init__(self, bx, seed, sizes=None):
        self.bx = bx
        self.seed = seed
        self.rng = random.Random(f"algebra:{seed}")
        self.warmup_degree = (sizes or {}).get("warmup_degree", 6)
        self.class_sizes = comb.ClassSizes()
        self.pairs = {}

    def setup(self):
        self.bx["config"].PRODUCT_DEGREE_CAP = self.PRODUCT_DEGREE_CAP
        node = self.bx["trees"].Node
        for n in range(1, max(self.MAX_OPERAND, self.DEGREES["p_coproduct"][1]) + 1):
            found = {comb.twin_pair_of(p, node)
                     for p in itertools.permutations(range(1, n + 1))}
            self.pairs[n] = sorted(found, key=comb.pair_text)
        hopf = self.bx["hopf"]
        rng = random.Random(f"algebra-warmup:{self.seed}")
        top = self.warmup_degree
        splits = [(n0, top - n0) for n0 in range(1, top)]
        splits += [(n0, total - n0) for total in range(2, top)
                   for n0 in [rng.randint(1, total - 1)]]
        for n0, n1 in splits:
            a, b = rng.choice(self.pairs[n0]), rng.choice(self.pairs[n1])
            hopf.e_product(a, b)
            hopf.h_product(a, b)

    def requests(self):
        hot = [r._replace(tags=frozenset({"repeat"})) for r in self._block()]
        while True:
            mixed = self._block() + self.rng.sample(hot, self.REPEATS)
            self.rng.shuffle(mixed)
            yield from mixed

    def _block(self):
        rng = self.rng
        block = []
        for kind, count in self.BLOCK:
            lo, hi = self.DEGREES[kind]
            for total in _spread(rng, count, lo, hi):
                if kind.endswith("coproduct"):
                    block.append(Request(kind, (rng.choice(self.pairs[total]),)))
                    continue
                n0 = rng.randint(max(1, total - self.MAX_OPERAND),
                                 min(self.MAX_OPERAND, total - 1))
                block.append(Request(kind, (rng.choice(self.pairs[n0]),
                                            rng.choice(self.pairs[total - n0]))))
        rng.shuffle(block)
        return block

    def run(self, req):
        return getattr(self.bx["hopf"], req.kind)(*req.args)

    def canonical(self, req, out):
        return _dumps(out.to_json())

    def check(self, req, out):
        size = self.class_sizes
        degrees = [comb.tree_size(j[0]) for j in req.args]
        coeffs = list(out.terms.values())
        if req.kind == "p_product":
            j0, j1 = req.args
            expected = math.comb(sum(degrees), degrees[0]) * size(j0) * size(j1)
            if any(c != 1 for c in coeffs):
                return "a P-product coefficient differs from 1"
            if sum(size(j) for j in out.terms) != expected:
                return "class sizes of the P-product do not add up"
        elif req.kind == "p_coproduct":
            (j,) = req.args
            total = sum(c * size(a) * size(b) for (a, b), c in out.terms.items())
            if total != (degrees[0] + 1) * size(j):
                return "class sizes of the P-coproduct do not add up"
        elif req.kind == "dual_product":
            if sum(coeffs) != math.comb(sum(degrees), degrees[0]):
                return "dual-product coefficients do not add up"
        elif req.kind == "dual_coproduct":
            if sum(coeffs) != degrees[0] + 1:
                return "dual-coproduct coefficients do not add up"
        elif coeffs != [1]:
            return f"{req.kind} is not a single term with coefficient 1"
        return None


# ---------------------------------------------------------------------------
# verify: the exhaustive invariant suites


class Verify:
    """``bx verify all --max-n 5`` in-process, one ``bx verify <suite>``
    request per suite in ``SUITES`` order, which is the work of ``all``
    in the same order: exhaustive oracle sweeps over whole degrees through
    every layer.  The stream is the same for every seed."""

    name = "verify"
    DESCRIPTORS = {"command": "bx verify <suite> --max-n 5 for each suite, "
                              "in SUITES order (the work of bx verify all)",
                   "op_mix": {"verify": 1.0}}

    def __init__(self, bx, seed, sizes=None):
        self.bx = bx
        self.max_n = (sizes or {}).get("max_n", 5)
        self.suites = list(bx["verify"].SUITES)
        self.block = len(self.suites)  # one pass

    def setup(self):
        pass

    def requests(self):
        return itertools.cycle(
            [Request("verify", ("verify", name, "--max-n", str(self.max_n)))
             for name in self.suites])

    def run(self, req):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = self.bx["cli"].main(list(req.args))
        return code, buf.getvalue()

    def canonical(self, req, out):
        return out[1]

    def check(self, req, out):
        code, text = out
        if code != 0:
            return f"exit code {code}"
        if json.loads(text).get("ok") is not True:
            return 'output lacks "ok": true'
        return None


WORKLOADS = {w.name: w for w in (Words, Algebra, Verify)}
