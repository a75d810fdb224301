import itertools
import json
import os
import subprocess
import sys

import pytest

import baxter
from baxter.cli import main
from baxter.congruence import congruence_class
from baxter.words import word_str


def run_cli(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    out, err = capsys.readouterr()
    return code, out, err


def test_insert_json(capsys):
    code, out, _ = run_cli(capsys, "insert", "5425424")
    assert code == 0
    payload = json.loads(out)
    assert payload["word"] == "5425424"
    assert payload["left_tree"] == "(5 (4 (2 . (2 . .)) (4 . (4 . .))) (5 . .))"
    assert payload["right_tree"] == "(4 (2 (2 . .) (4 (4 . .) .)) (5 (5 . .) .))"
    assert payload["q_tree"] == "(7 (6 (3 . .) (5 (2 . .) .)) (4 (1 . .) .))"
    assert payload["pair"].startswith("[ ") and payload["pair"].endswith(" ]")


def test_insert_plain(capsys):
    code, out, _ = run_cli(capsys, "insert", "21", "--plain")
    assert code == 0
    lines = out.splitlines()
    assert any(line.startswith("left_tree: ") for line in lines)


@pytest.mark.parametrize("order", ["increasing", "decreasing"])
def test_insert_deep_word_at_the_default_recursion_limit(order):
    letters = range(1, 1500) if order == "increasing" else range(1499, 0, -1)
    src = os.path.dirname(os.path.dirname(baxter.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "baxter.cli", "insert", " ".join(map(str, letters))],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    payload = json.loads(proc.stdout)
    bit = "1" if order == "increasing" else "0"
    assert payload["left_canopy"] == bit * 1498


def test_class_of_deep_permutation_at_the_default_recursion_limit():
    word = " ".join(map(str, range(1, 1500)))
    src = os.path.dirname(os.path.dirname(baxter.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "baxter.cli", "class", word],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    assert json.loads(proc.stdout)["class"] == [word]


def test_class_of_permutation(capsys):
    code, out, _ = run_cli(capsys, "class", "5273641")
    assert code == 0
    payload = json.loads(out)
    assert payload["class"] == [
        "5237641", "5273641", "5276341", "5723641", "5726341", "5762341",
    ]


def test_class_of_word_with_repeats(capsys):
    code, out, _ = run_cli(capsys, "class", "2132", "--plain")
    assert code == 0
    assert out.split() == ["2132", "2312"]


def test_class_of_rigid_word_is_a_singleton(capsys):
    code, out, _ = run_cli(capsys, "class", "121", "--plain")
    assert code == 0
    assert out.split() == ["121"]


def test_class_of_words_matches_the_rewrite_closure(capsys):
    # bx class reads the class of the standardized word back in the
    # word's letters; congruence_class closes the rewrite rules directly
    for n in range(6):
        for w in itertools.product((1, 2, 3), repeat=n):
            code, out, _ = run_cli(capsys, "class", word_str(w), "--plain")
            assert code == 0
            assert out.split() == [word_str(v) for v in sorted(congruence_class(w, "baxter"))]


def test_class_of_repeated_increasing_run(capsys):
    word = " ".join(map(str, list(range(1, 11)) * 2))
    code, out, _ = run_cli(capsys, "class", word, "--plain")
    assert code == 0
    assert len(out.splitlines()) == 4862


def test_check_baxter_true_exits_zero(capsys):
    code, out, _ = run_cli(capsys, "check-baxter", "436975128")
    assert code == 0
    assert json.loads(out) is True


def test_check_baxter_false_exits_one(capsys):
    code, out, _ = run_cli(capsys, "check-baxter", "2413", "--plain")
    assert code == 1
    assert out.strip() == "false"


def test_check_baxter_rejects_non_permutation(capsys):
    code, _, err = run_cli(capsys, "check-baxter", "122")
    assert code == 2
    assert "permutation" in err


def test_product_p_basis(capsys):
    code, out, _ = run_cli(
        capsys, "product", "--basis", "P",
        "[ ((. (. .)) .) | ((. .) (. .)) ]", "[ (. (. .)) | ((. .) .) ]")
    assert code == 0
    payload = json.loads(out)
    assert payload["basis"] == "P"
    terms = payload["result"]["terms"]
    assert len(terms) == 6
    assert all(t["coeff"] == "1" for t in terms)


def test_product_e_basis_single_term(capsys):
    code, out, _ = run_cli(
        capsys, "product", "--basis", "E", "[ (. .) | (. .) ]", "[ (. .) | (. .) ]")
    assert code == 0
    payload = json.loads(out)
    assert payload["result"]["terms"] == [
        {"coeff": "1", "key": "[ (. (. .)) | ((. .) .) ]"}]


def test_product_h_basis_single_term(capsys):
    code, out, _ = run_cli(
        capsys, "product", "--basis", "H", "[ (. .) | (. .) ]", "[ (. .) | (. .) ]")
    assert code == 0
    payload = json.loads(out)
    assert payload["result"]["terms"] == [
        {"coeff": "1", "key": "[ ((. .) .) | (. (. .)) ]"}]


def test_coproduct_p_basis(capsys):
    code, out, _ = run_cli(
        capsys, "coproduct", "--basis", "P",
        "[ ((. .) ((. .) .)) | ((. (. .)) (. .)) ]", "--plain")
    assert code == 0
    assert len(out.strip().splitlines()) == 8
    assert " (x) " in out


def test_coproduct_pstar_basis(capsys):
    code, out, _ = run_cli(
        capsys, "coproduct", "--basis", "Pstar", "[ (. (. .)) | ((. .) .) ]")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["result"]["terms"]) == 3


def test_dual_product(capsys):
    code, out, _ = run_cli(
        capsys, "dual-product", "[ (. (. .)) | ((. .) .) ]", "[ (. .) | (. .) ]")
    assert code == 0
    payload = json.loads(out)
    assert payload["basis"] == "Pstar"
    assert len(payload["result"]["terms"]) == 3


@pytest.mark.parametrize("basis", ["P", "E", "H"])
def test_product_rejects_a_pair_that_is_not_twin(capsys, basis):
    bad = "[ ((. (. .)) .) | (. ((. .) .)) ]"
    code, out, err = run_cli(
        capsys, "product", "--basis", basis, "[ (. .) | (. .) ]", bad)
    assert code == 2
    assert out == ""
    assert err == f"error: not a twin pair: {bad}\n"


@pytest.mark.parametrize("basis", ["P", "E", "H"])
def test_product_of_deep_combs_at_the_default_recursion_limit(basis):
    n = 1499
    pair = f"[ {'(. ' * n}.{')' * n} | {'(' * n}.{' .)' * n} ]"
    src = os.path.dirname(os.path.dirname(baxter.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "baxter.cli", "product", "--basis", basis, pair, pair],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith(f"error: total degree {2 * n} exceeds PRODUCT_DEGREE_CAP")


def test_pstar_coproduct_of_a_deep_comb_stops_at_the_degree_cap():
    n = 1499
    pair = f"[ {'(. ' * n}.{')' * n} | {'(' * n}.{' .)' * n} ]"
    src = os.path.dirname(os.path.dirname(baxter.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "baxter.cli", "coproduct", "--basis", "Pstar", pair],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith(f"error: total degree {n} exceeds PRODUCT_DEGREE_CAP")


def test_a_closed_pipe_ends_the_command_quietly_with_its_exit_code():
    # `bx lattice 7` writes 1.5 MB of JSON, more than a pipe buffer holds
    src = os.path.dirname(os.path.dirname(baxter.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "baxter.cli", "lattice", "7"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env=dict(os.environ, PYTHONPATH=path))
    assert len(proc.stdout.read(100)) == 100
    proc.stdout.close()
    err = proc.stderr.read().decode()
    assert proc.wait(timeout=120) == 0, err
    assert "Traceback" not in err


def test_product_rejects_malformed_pair_with_position(capsys):
    code, _, err = run_cli(
        capsys, "product", "--basis", "P", "[ (. .) | (. . ]", "[ . | . ]")
    assert code == 2
    assert "position" in err


def test_lattice_json(capsys):
    code, out, _ = run_cli(capsys, "lattice", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["n"] == 3
    assert len(payload["vertices"]) == 6
    assert all(c["case"] in {"left-only", "right-only", "simultaneous"}
               for c in payload["covers"])


def test_lattice_dot(capsys):
    code, out, _ = run_cli(capsys, "lattice", "2", "--dot")
    assert code == 0
    assert out.startswith("digraph")
    assert "->" in out


GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")


@pytest.mark.parametrize("flags, golden", [
    ((), "lattice_4.json"),
    (("--dot",), "lattice_4.dot"),
], ids=["json", "dot"])
def test_lattice_output_is_byte_exact(capsys, flags, golden):
    # every cover case (left-only, right-only, simultaneous) occurs at n = 4
    code, out, _ = run_cli(capsys, "lattice", "4", *flags)
    assert code == 0
    with open(os.path.join(GOLDEN_DIR, golden), encoding="utf-8") as fh:
        assert out == fh.read()


def test_dims_rows(capsys):
    code, out, _ = run_cli(capsys, "dims", "5")
    assert code == 0
    payload = json.loads(out)
    row = payload["rows"][-1]
    assert (row["n"], row["baxter"], row["connected"], row["totally_primitive"]) == (
        5, 92, 47, 19)


def test_dims_plain_is_tab_separated(capsys):
    code, out, _ = run_cli(capsys, "dims", "3", "--plain")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].split("\t") == ["n", "baxter", "connected", "totally_primitive"]
    assert lines[-1].split("\t") == ["3", "6", "3", "1"]


@pytest.mark.parametrize("flags", [(), ("--plain",)])
def test_dims_rejects_a_negative_bound(capsys, flags):
    code, out, err = run_cli(capsys, "dims", "-1", *flags)
    assert code == 2
    assert out == ""
    assert err == "error: n must be nonnegative\n"


@pytest.mark.parametrize("flags", [(), ("--plain",)])
def test_insert_empty_word_gives_the_empty_pair(capsys, flags):
    code, out, err = run_cli(capsys, "insert", "e", *flags)
    assert code == 0 and err == ""
    if flags:
        assert "pair: [ . | . ]" in out.splitlines()
        return
    payload = json.loads(out)
    assert payload["word"] == "e"
    assert payload["pair"] == "[ . | . ]"
    assert (payload["left_canopy"], payload["right_canopy"]) == ("", "")


def test_primitives(capsys):
    code, out, _ = run_cli(capsys, "primitives", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["dimension"] == 1
    assert len(payload["basis"]) == 1
    keys = {t["key"] for t in payload["basis"][0]["terms"]}
    assert keys == {
        "[ ((. .) (. .)) | (. ((. .) .)) ]",
        "[ (. ((. .) .)) | ((. .) (. .)) ]",
    }


def test_verify_single_suite(capsys):
    code, out, _ = run_cli(capsys, "verify", "words", "--max-n", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert payload["suites"][0]["name"] == "words"
    assert all(c["ok"] for c in payload["suites"][0]["checks"])


def test_verify_plain_lines(capsys):
    code, out, _ = run_cli(capsys, "verify", "exactlin", "--plain")
    assert code == 0
    for line in out.strip().splitlines():
        assert line.startswith("ok\texactlin\t")


def test_verify_rejects_unknown_suite(capsys):
    code, _, err = run_cli(capsys, "verify", "frobnicate")
    assert code == 2


@pytest.mark.parametrize("suite", ["words", "series", "all"])
def test_verify_rejects_a_negative_bound(capsys, suite):
    code, out, err = run_cli(capsys, "verify", suite, "--max-n", "-1")
    assert code == 2
    assert out == ""
    assert err == "error: max_n must be nonnegative\n"


def test_unknown_subcommand_exits_two(capsys):
    code, _, _ = run_cli(capsys, "frobnicate")
    assert code == 2


def test_missing_argument_exits_two(capsys):
    code, _, _ = run_cli(capsys, "insert")
    assert code == 2


def test_cached_parser_gives_the_same_results_on_repeated_calls(capsys):
    assert baxter.cli._parser() is baxter.cli._parser()
    first = run_cli(capsys, "insert", "5425424", "--plain")
    # an error exit in between leaves the shared parser as it was
    assert run_cli(capsys, "insert")[0] == 2
    assert run_cli(capsys, "insert", "5425424", "--plain") == first
    assert run_cli(capsys, "product", "--basis", "E", "[ (. .) | (. .) ]",
                   "[ (. .) | (. .) ]")[0] == 0
    assert run_cli(capsys, "insert", "5425424", "--plain") == first


def test_malformed_word_exits_two(capsys):
    code, _, err = run_cli(capsys, "insert", "12x")
    assert code == 2
    assert "position" in err


# Exact stdout of the algebra commands, JSON and --plain, so that the
# canonical (degree, text) order of terms is pinned, not only their count.
_A = "[ ((. (. .)) .) | ((. .) (. .)) ]"
_B = "[ (. (. .)) | ((. .) .) ]"
_C = "[ ((. .) ((. .) .)) | ((. (. .)) (. .)) ]"
_E = "[ . | . ]"
_J1 = "[ (. .) | (. .) ]"
_PRODUCT_AB = [
    "[ (((. (. .)) .) (. .)) | (((. .) (. (. .))) .) ]",
    "[ (((. (. .)) .) (. .)) | ((. .) ((. (. .)) .)) ]",
    "[ (((. (. .)) .) (. .)) | ((. .) (. ((. .) .))) ]",
    "[ ((. (. .)) (. (. .))) | ((((. .) (. .)) .) .) ]",
    "[ ((. (. .)) (. (. .))) | (((. .) ((. .) .)) .) ]",
    "[ ((. (. .)) (. (. .))) | ((. .) (((. .) .) .)) ]",
]
_COPRODUCT_C = [
    (_E, _C),
    (_J1, _A),
    (_J1, "[ (. ((. .) .)) | ((. .) (. .)) ]"),
    ("[ ((. .) .) | (. (. .)) ]", "[ ((. .) .) | (. (. .)) ]"),
    (_B, _B),
    ("[ ((. .) (. .)) | ((. (. .)) .) ]", _J1),
    ("[ ((. .) (. .)) | (. ((. .) .)) ]", _J1),
    (_C, _E),
]
_COPRODUCT_B = [(_E, _B), (_J1, _J1), (_B, _E)]
_DUAL_B_J1 = [
    "[ ((. .) (. .)) | (. ((. .) .)) ]",
    "[ (. ((. .) .)) | ((. .) (. .)) ]",
    "[ (. (. (. .))) | (((. .) .) .) ]",
]
_P4 = [
    "[ (((. .) .) (. .)) | (. ((. (. .)) .)) ]",
    "[ (((. .) .) (. .)) | (. (. ((. .) .))) ]",
    "[ ((. (. .)) (. .)) | ((. .) ((. .) .)) ]",
    "[ ((. .) ((. .) .)) | (. ((. .) (. .))) ]",
    "[ ((. .) (. (. .))) | (. (((. .) .) .)) ]",
    "[ (. ((. (. .)) .)) | (((. .) .) (. .)) ]",
    "[ (. (. ((. .) .))) | (((. .) .) (. .)) ]",
    "[ ((. .) ((. .) .)) | ((. (. .)) (. .)) ]",
    "[ (. (((. .) .) .)) | ((. .) (. (. .))) ]",
    "[ (. ((. .) (. .))) | ((. .) ((. .) .)) ]",
]
_PRIMITIVES_4 = [
    [("-1", _P4[2]), ("1", _P4[7])],
    [("-1", _P4[3]), ("1", _P4[8])],
    [("-1", _P4[4]), ("1", _P4[9])],
    [("1", _P4[0]), ("1", _P4[1]), ("-1", _P4[2]), ("-1", _P4[3]),
     ("-1", _P4[4]), ("1", _P4[5]), ("1", _P4[6])],
]


def _terms(basis, keys):
    return {"basis": basis, "terms": [{"coeff": "1", "key": k} for k in keys]}


def _tensor_terms(basis, keys):
    return {"basis": [basis, basis],
            "terms": [{"coeff": "1", "key": list(k)} for k in keys]}


_GOLDEN = {
    "product-P": (
        ["product", "--basis", "P", _A, _B],
        {"basis": "P", "factors": [_A, _B], "result": _terms("P", _PRODUCT_AB)},
        [f"1\t{k}" for k in _PRODUCT_AB],
    ),
    "coproduct-P": (
        ["coproduct", "--basis", "P", _C],
        {"basis": "P", "pair": _C, "result": _tensor_terms("P", _COPRODUCT_C)},
        [f"1\t{a} (x) {b}" for a, b in _COPRODUCT_C],
    ),
    "coproduct-Pstar": (
        ["coproduct", "--basis", "Pstar", _B],
        {"basis": "Pstar", "pair": _B, "result": _tensor_terms("Pstar", _COPRODUCT_B)},
        [f"1\t{a} (x) {b}" for a, b in _COPRODUCT_B],
    ),
    "dual-product": (
        ["dual-product", _B, _J1],
        {"basis": "Pstar", "factors": [_B, _J1], "result": _terms("Pstar", _DUAL_B_J1)},
        [f"1\t{k}" for k in _DUAL_B_J1],
    ),
    "primitives-4": (
        ["primitives", "4"],
        {"n": 4, "dimension": 4, "basis": [
            {"basis": "P", "terms": [{"coeff": c, "key": k} for c, k in element]}
            for element in _PRIMITIVES_4]},
        ["; ".join(f"{c} {k}" for c, k in element) for element in _PRIMITIVES_4],
    ),
}


@pytest.mark.parametrize("name", sorted(_GOLDEN))
def test_algebra_output_is_byte_exact(capsys, name):
    argv, payload, lines = _GOLDEN[name]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert out == json.dumps(payload, indent=2) + "\n"
    code, out, _ = run_cli(capsys, *argv, "--plain")
    assert code == 0
    assert out == "".join(line + "\n" for line in lines)
