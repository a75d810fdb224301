"""Fuzz the command line in-process.

Every argument vector, well formed or not, must end in exit code 0
(ok), 1 (a failed verification or Baxter test) or 2 (bad usage or
input), with no exception escaping ``main``.  Sizes stay small so that
each call is quick: ``verify --max-n`` at most 3, ``dims``, ``lattice``
and ``primitives`` at n at most 4, pair factors of at most 3 nodes,
short words, and deep inputs only where the work is near-linear.
"""

import contextlib
import io

from hypothesis import example, given, settings, strategies as st

from baxter.cli import main
from baxter.verify import SUITES

# Short, so that no garbage word has a large congruence class; the
# digit-free kind stands where a number would set the size of the work.
GARBAGE = st.text(alphabet="()[]|. 0123456789-x,é", max_size=10)
NOISE = st.text(alphabet="()[]|. -x,é", max_size=10)


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse: 2 on bad usage, 0 after --help
            code = exc.code
    assert code in (0, 1, 2), (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue()


def _comb(n, right):
    return "(. " * n + "." + ")" * n if right else "(" * n + "." + " .)" * n


@st.composite
def trees(draw, max_nodes):
    """A random tree text with at most ``max_nodes`` nodes."""
    n = draw(st.integers(0, max_nodes))
    if n == 0:
        return "."
    k = draw(st.integers(0, n - 1))
    return f"({draw(trees(k))} {draw(trees(n - 1 - k))})"


def pairs(comb_sizes):
    return st.one_of(
        st.builds("[ {} | {} ]".format, trees(3), trees(3)),
        st.builds(lambda n: f"[ {_comb(n, True)} | {_comb(n, False)} ]",
                  st.sampled_from(comb_sizes)),
        st.builds("[ {} | {}".format, trees(2), trees(2)),
        GARBAGE,
    )


PAIRS = pairs([2, 3, 40, 1499])

SHORT_WORDS = st.lists(st.integers(1, 9), max_size=7).map(
    lambda w: " ".join(map(str, w)))
DEEP_WORDS = st.builds(
    lambda n, order: " ".join(map(str, order(range(1, n + 1)))),
    st.sampled_from([200, 600]), st.sampled_from([list, reversed]))
WORDS = st.one_of(SHORT_WORDS, DEEP_WORDS, GARBAGE)
SMALL_N = st.one_of(st.integers(-2, 4).map(str), NOISE)
PLAIN = st.sampled_from([[], ["--plain"]])

ARGVS = st.one_of(
    st.tuples(st.sampled_from(["insert", "class", "check-baxter"]), WORDS)
    .map(list),
    st.builds(lambda basis, a, b: ["product", *basis, a, b],
              st.sampled_from([[], ["--basis", "P"], ["--basis", "E"],
                               ["--basis", "H"], ["--basis", "Pstar"],
                               ["--basis", "X"]]),
              PAIRS, PAIRS),
    st.builds(lambda a, b: ["dual-product", a, b], PAIRS, PAIRS),
    st.builds(lambda basis, a: ["coproduct", "--basis", basis, a],
              st.sampled_from(["P", "Pstar"]), PAIRS),
    st.builds(lambda cmd, n: [cmd, n],
              st.sampled_from(["dims", "lattice", "primitives"]), SMALL_N),
    st.builds(lambda n, fmt: ["lattice", n, *fmt], SMALL_N,
              st.sampled_from([["--dot"], ["--format", "dot"],
                               ["--format", "json"], ["--format", "svg"]])),
    st.builds(lambda suites, n: ["verify", *suites, "--max-n", n],
              st.lists(st.sampled_from([*SUITES, "all", "nonsense"]),
                       max_size=3),
              st.one_of(st.integers(-2, 3).map(str), NOISE)),
    st.lists(st.one_of(
        st.sampled_from(["insert", "class", "product", "coproduct", "lattice",
                         "dims", "primitives", "--basis", "--plain", "-h",
                         "--max-n", "--dot", "E", "1", "3"]),
        NOISE), max_size=4),
)


@settings(max_examples=300, deadline=None)
@given(ARGVS, PLAIN)
@example(["insert", "1 --2"], [])
@example(["class", "1 ²"], [])
@example(["check-baxter", "①"], ["--plain"])
def test_every_argv_exits_with_a_documented_code(argv, plain):
    run(argv + plain)
