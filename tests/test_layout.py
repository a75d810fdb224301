"""Where the brute-force oracles live, read from the source with ``ast``.

``baxter.verify`` is the one home of the paper's literal definitions:
only the CLI's ``verify`` command imports it, and only it imports the
rewrite closure of ``baxter.congruence``.  The library modules keep only
what they run, and importing the CLI loads neither ``baxter.verify`` nor
``dataclasses`` (which brings in ``inspect``, ``ast``, ``dis`` and
``tokenize``).
"""

import ast
import os
import subprocess
import sys
from pathlib import Path
from types import ModuleType

import baxter

PACKAGE = Path(baxter.__file__).resolve().parent

# Defined in verify, and nowhere else in the package.
MOVED = {
    "leaf_insert", "root_insert", "infix_labeling", "is_left_bst",
    "is_right_bst", "_bounds_ok", "is_decreasing", "co_inversions",
    "_is_baxter_scan", "series_check", "_series_mul", "_series_inv",
    "_position_shuffle", "f_product", "f_coproduct", "f_coproduct_left",
    "f_coproduct_right", "_deconcatenate", "_after_max", "f_prec", "f_succ",
    "_half_product", "collect", "theta", "p_to_f", "fstar_product",
    "fstar_coproduct", "phi", "psi", "phi_psi_theta", "f_element",
    "fstar_element", "all_trees", "unlabel", "_JOIN", "restricted_trees",
    "_restrict_le", "_restrict_gt",
}
# Defined nowhere in the package.
DELETED = {
    "perm_over", "perm_under", "SeriesReport", "f_collect_to_p",
    "f_collect_to_sylv", "LEAF", "Word", "trees_by_canopy", "_CLASSES",
    "_class_sums", "_right_shape", "sylv_to_f", "sylv_element",
    "_sylv_key_product", "rho_linear", "sylvester_class_of_tree", "e_from_p",
    "h_from_p", "p_from_e", "p_from_h", "tensor_product", "equivalent",
    "_greedy_extremes", "canopy_class", "_canopy_key",
    "_totally_primitive_cached",
}
# Input checks, each defined in one module only.
CHECKS = {"check_permutation": "words", "check_enum_degree": "config"}
ORACLES = MOVED | {"adjacent_rewrites", "congruence_class"}


def _sources():
    return {path.stem: ast.parse(path.read_text()) for path in PACKAGE.glob("*.py")}


def _imported_modules(tree):
    """Short names of the package modules that ``tree`` imports."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "baxter" and len(parts) > 1:
                    out.add(parts[1])
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0 and module.startswith("baxter"):
                module = module[len("baxter"):].lstrip(".")
            elif node.level == 0:
                continue
            if module:
                out.add(module.split(".")[0])
            else:  # ``from . import name`` and ``from baxter import name``
                out.update(alias.name for alias in node.names)
    return out


def _defined(tree):
    """Names bound at the top level of a module, other than by import."""
    out = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            out.update(t.id for t in targets if isinstance(t, ast.Name))
    return out


def test_only_the_cli_imports_verify():
    importers = {name for name, tree in _sources().items()
                 if "verify" in _imported_modules(tree)}
    assert importers == {"cli"}


def test_only_verify_imports_the_rewrite_closure():
    importers = {name for name, tree in _sources().items()
                 if "congruence" in _imported_modules(tree)}
    assert importers == {"verify"}


def test_the_oracles_are_defined_only_in_verify():
    sources = _sources()
    assert MOVED <= _defined(sources["verify"])
    assert not DELETED & _defined(sources["verify"])
    for name, tree in sources.items():
        if name != "verify":
            assert not (MOVED | DELETED) & _defined(tree), name


def test_each_input_check_is_defined_in_one_module():
    sources = _sources()
    for check, home in CHECKS.items():
        assert {name for name, tree in sources.items() if check in _defined(tree)} == {home}


def test_the_package_exports_only_functions_and_classes():
    exported = {name: getattr(baxter, name) for name in baxter.__all__}
    assert not [n for n, obj in exported.items() if isinstance(obj, ModuleType)]
    assert all(callable(obj) for obj in exported.values())
    assert not ORACLES & set(exported)


def test_importing_the_cli_loads_no_dataclasses():
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, baxter.cli; assert 'dataclasses' not in sys.modules; "
         "assert 'baxter.verify' not in sys.modules"],
        capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0, proc.stderr
