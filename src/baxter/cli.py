"""Command-line front end.

Every subcommand prints JSON on standard output by default; ``--plain``
switches to line-oriented text.  Exit codes: 0 on success, 1 when a
verification (or a Baxter-membership query) fails, 2 on usage or parse
errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import lru_cache

from .errors import InternalInvariantError
from .exactlin import rational_str
from .hopf import (
    baxter_numbers,
    connected_pairs,
    dual_coproduct,
    dual_product,
    e_product,
    h_product,
    p_coproduct,
    p_product,
    totally_primitive_basis,
)
from .insertion import class_of_pair, p_shape, p_symbol, q_symbol
from .lattice import enumerate_tbt, hasse, hasse_dot
from .perms import is_baxter
from .trees import canopy, ltree_str, pair_str, pair_text, parse_pair, tree_str
from .words import is_permutation, parse_word, standardize, word_str


def _write(text):
    # once the reader is gone, the rest goes to os.devnull: the last flush cannot fail
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _emit(args, payload, plain_lines):
    _write("".join(f"{line}\n" for line in plain_lines) if args.plain
           else json.dumps(payload, indent=2) + "\n")


def _term_lines(element):
    return [
        f"{rational_str(c)}\t{' (x) '.join(texts)}"
        for texts, c in element.canonical_terms()
    ]


def cmd_insert(args):
    u = parse_word(args.word)
    left, right = p_symbol(u)
    q = q_symbol(u)
    shape = p_shape(u)
    shapes = [tree_str(t) for t in shape]
    # the empty pair has empty canopies, though canopy() rejects the leaf
    canopies = [canopy(t) if u else "" for t in shape]
    payload = {
        "word": word_str(u),
        "left_tree": ltree_str(left),
        "right_tree": ltree_str(right),
        "left_shape": shapes[0],
        "right_shape": shapes[1],
        "pair": pair_text(*shapes),
        "left_canopy": canopies[0],
        "right_canopy": canopies[1],
        "q_tree": ltree_str(q),
    }
    _emit(args, payload, [f"{k}: {v}" for k, v in payload.items()])
    return 0


def cmd_class(args):
    u = parse_word(args.word)
    # The Baxter class of u is the class of std(u) read in u's letters:
    # value v becomes the v-th smallest letter of u.
    letters = sorted(u)
    members = sorted(
        tuple(letters[v - 1] for v in s)
        for s in class_of_pair(p_shape(standardize(u))))
    texts = [word_str(w) for w in members]
    _emit(args, {"word": word_str(u), "class": texts}, texts)
    return 0


def cmd_check_baxter(args):
    u = parse_word(args.perm)
    if not is_permutation(u):
        raise ValueError(f"not a permutation: {word_str(u)}")
    ok = is_baxter(u)
    _emit(args, ok, ["true" if ok else "false"])
    return 0 if ok else 1


def cmd_product(args):
    j0 = parse_pair(args.left)
    j1 = parse_pair(args.right)
    ops = {"P": p_product, "E": e_product, "H": h_product, "Pstar": dual_product}
    result = ops[args.basis](j0, j1)
    payload = {
        "basis": args.basis,
        "factors": [pair_str(j0), pair_str(j1)],
        "result": result.to_json(),
    }
    _emit(args, payload, _term_lines(result))
    return 0


def cmd_coproduct(args):
    j = parse_pair(args.pair)
    result = p_coproduct(j) if args.basis == "P" else dual_coproduct(j)
    payload = {
        "basis": args.basis,
        "pair": pair_str(j),
        "result": result.to_json(),
    }
    _emit(args, payload, _term_lines(result))
    return 0


def cmd_lattice(args):
    fmt = "dot" if args.dot else args.format
    if fmt == "dot":
        _write(hasse_dot(args.n))
        return 0
    vertices = [pair_str(j) for j in enumerate_tbt(args.n)]
    covers = [
        {"source": vertices[i], "target": vertices[k], "case": case}
        for i, row in enumerate(hasse(args.n))
        for k, case in row
    ]
    payload = {"n": args.n, "vertices": vertices, "covers": covers}
    lines = [f"vertex\t{v}" for v in vertices]
    lines += [f"cover\t{c['source']}\t{c['target']}\t{c['case']}" for c in covers]
    _emit(args, payload, lines)
    return 0


def cmd_dims(args):
    counts = baxter_numbers(args.nmax)
    rows = []
    for n in range(args.nmax + 1):
        rows.append({
            "n": n,
            "baxter": counts[n],
            "connected": len(connected_pairs(n)),
            "totally_primitive": len(totally_primitive_basis(n)),
        })
    lines = ["n\tbaxter\tconnected\ttotally_primitive"]
    lines += [
        f"{r['n']}\t{r['baxter']}\t{r['connected']}\t{r['totally_primitive']}"
        for r in rows
    ]
    _emit(args, {"rows": rows}, lines)
    return 0


def cmd_primitives(args):
    basis = totally_primitive_basis(args.n)
    payload = {
        "n": args.n,
        "dimension": len(basis),
        "basis": [element.to_json() for element in basis],
    }
    lines = []
    for element in basis:
        lines.append("; ".join(
            f"{rational_str(c)} {texts[0]}" for texts, c in element.canonical_terms()
        ))
    _emit(args, payload, lines)
    return 0


def cmd_verify(args):
    # imported here: it is the largest module, and only this command runs it
    from .verify import run

    results = run(tuple(args.suite), max_n=args.max_n)
    ok = all(check.ok for _, checks in results for check in checks)
    payload = {
        "max_n": args.max_n,
        "ok": ok,
        "suites": [
            {
                "name": name,
                "checks": [
                    {"name": c.name, "ok": c.ok, "detail": c.detail} for c in checks
                ],
            }
            for name, checks in results
        ],
    }
    lines = []
    for name, checks in results:
        for c in checks:
            status = "ok" if c.ok else "FAIL"
            suffix = f": {c.detail}" if c.detail else ""
            lines.append(f"{status}\t{name}\t{c.name}{suffix}")
    _emit(args, payload, lines)
    return 0 if ok else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="bx",
        description="Compute with the Baxter monoid, twin binary trees, "
                    "their lattice, and the associated Hopf algebra.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--plain", action="store_true",
        help="line-oriented text instead of JSON")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("insert", parents=[common],
                       help="insert a word into a pair of twin binary search trees")
    p.add_argument("word", help="word, e.g. 5425424 or '10 2 10'")
    p.set_defaults(func=cmd_insert)

    p = sub.add_parser("class", parents=[common],
                       help="list the congruence class of a word "
                            "(no member cap: run time follows the class size)")
    p.add_argument("word")
    p.set_defaults(func=cmd_class)

    p = sub.add_parser("check-baxter", parents=[common],
                       help="test whether a permutation is Baxter "
                            "(exit 0 if so, 1 otherwise)")
    p.add_argument("perm")
    p.set_defaults(func=cmd_check_baxter)

    p = sub.add_parser("product", parents=[common],
                       help="multiply two basis elements indexed by twin pairs")
    p.add_argument("--basis", choices=("P", "E", "H", "Pstar"), default="P")
    p.add_argument("left", help='pair, e.g. "[ (. (. .)) | ((. .) .) ]"')
    p.add_argument("right")
    p.set_defaults(func=cmd_product)

    p = sub.add_parser("coproduct", parents=[common],
                       help="coproduct of a basis element indexed by a twin pair")
    p.add_argument("--basis", choices=("P", "Pstar"), default="P")
    p.add_argument("pair")
    p.set_defaults(func=cmd_coproduct)

    p = sub.add_parser("dual-product", parents=[common],
                       help="shorthand for product --basis Pstar")
    p.add_argument("left")
    p.add_argument("right")
    p.set_defaults(func=cmd_product, basis="Pstar")

    p = sub.add_parser("lattice", parents=[common],
                       help="vertices and cover moves of the degree-n pair lattice")
    p.add_argument("n", type=int)
    p.add_argument("--format", choices=("json", "dot"), default="json")
    p.add_argument("--dot", action="store_true", help="shorthand for --format dot")
    p.set_defaults(func=cmd_lattice)

    p = sub.add_parser("dims", parents=[common],
                       help="dimension table: all, connected, totally primitive")
    p.add_argument("nmax", type=int)
    p.set_defaults(func=cmd_dims)

    p = sub.add_parser("primitives", parents=[common],
                       help="basis of the degree-n totally primitive elements")
    p.add_argument("n", type=int)
    p.set_defaults(func=cmd_primitives)

    p = sub.add_parser("verify", parents=[common],
                       help="run invariant suites (exit 1 on any failure)")
    p.add_argument("suite", nargs="+", help="suite names or 'all'")
    p.add_argument("--max-n", type=int, default=5, dest="max_n")
    p.set_defaults(func=cmd_verify)
    return parser


@lru_cache(maxsize=1)
def _parser():
    """The parser, built once per process: parsing leaves it unchanged."""
    return build_parser()


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InternalInvariantError as exc:
        print(f"internal invariant violated: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
