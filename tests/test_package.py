"""The package root: lazy exports, the one error base, and exact arithmetic.

`import gitcurves` loads no submodule; each exported name is imported from
its submodule on first use.  The CLI reports every `GitcurvesError` as an
`error:` line, so the set of its subclasses is part of the contract.  No
module computes in floating point.
"""

import ast
import subprocess
import sys
from collections import Counter

import pytest
from paths import ROOT, src_env

import gitcurves
from gitcurves import GitcurvesError, basins, chow, divisors, engine, families, graphs, monomials

EXPORTED = {
    graphs: (
        "Component",
        "CurveGraph",
        "CurveGraphError",
        "Intersection",
        "StabilityFlags",
        "arithmetic_genus",
        "aut_torus_rank",
        "classify",
        "contact_multiplicity",
        "find_elliptic_bridges",
        "find_elliptic_chains",
        "find_elliptic_tails",
        "find_rosaries",
        "find_weak_elliptic_chains",
        "has_infinite_automorphisms",
    ),
    families: (
        "Configuration",
        "FamilyError",
        "OneParamSubgroup",
        "Parametrization",
        "build_broken_bead_config",
        "build_closed_rosary_config",
        "build_open_rosary_config",
        "canonical_1ps",
        "torus_generators",
    ),
    engine: (
        "EngineError",
        "IdealSlice",
        "IndexReport",
        "chow_index_sign",
        "evaluate_slice",
        "extrapolate_index",
        "hilbert_index",
        "index_suite",
        "point_index",
    ),
    monomials: ("MonomialOrder",),
    chow: (
        "BranchData",
        "ChowError",
        "MultiplicityCertificate",
        "branch_multiplicity_bound",
        "certify_unstable",
        "chow_threshold",
        "degenerate_multiplicity",
    ),
    basins: (
        "BasinError",
        "BasinReport",
        "VersalWeights",
        "basin_membership",
        "c_closed_orbit_rep",
        "enumerate_c_replacements",
        "h_closed_orbit_rep",
        "is_c_closed_orbit",
        "is_h_closed_orbit",
        "versal_weights",
    ),
    divisors: (
        "DivisorClass",
        "DivisorError",
        "epsilon_of_m",
        "lambda_n",
        "moriwaki_decomposition",
        "proportional",
        "viehweg_class",
    ),
}
NAMES = [name for names in EXPORTED.values() for name in names]


def test_export_list_is_the_58_names():
    assert len(NAMES) == len(set(NAMES)) == 58
    assert set(gitcurves.__all__) == set(NAMES) | {"GitcurvesError", "fmt"}


@pytest.mark.parametrize("module", list(EXPORTED), ids=lambda m: m.__name__)
def test_names_resolve_to_submodule_objects(module):
    for name in EXPORTED[module]:
        assert getattr(gitcurves, name) is getattr(module, name)
        namespace = {}
        exec(f"from gitcurves import {name}", namespace)
        assert namespace[name] is getattr(module, name)


def test_import_loads_no_submodule():
    code = "import sys, gitcurves; print(sorted(m for m in sys.modules if m.startswith('gitcurves')))"
    out = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, env=src_env(), capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "['gitcurves']"


def test_submodules_resolve_as_attributes():
    code = (
        "import sys, gitcurves; "
        "print(gitcurves.graphs.__name__, gitcurves.engine is sys.modules['gitcurves.engine'])"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, env=src_env(), capture_output=True, text=True, check=True
    )
    assert out.stdout.split() == ["gitcurves.graphs", "True"]


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'nope'"):
        gitcurves.nope
    assert not hasattr(gitcurves, "nope")


def test_dir_and_star_import_list_exports():
    listed = dir(gitcurves)
    assert set(NAMES) <= set(listed)
    assert {"GitcurvesError", "fmt", "__version__"} <= set(listed)
    namespace = {}
    exec("from gitcurves import *", namespace)
    assert set(NAMES) <= set(namespace)


def test_error_base_has_exactly_the_six_input_errors():
    def subclasses(cls):
        return {s for c in cls.__subclasses__() for s in {c} | subclasses(c)}

    assert issubclass(GitcurvesError, ValueError)
    assert subclasses(GitcurvesError) == {
        graphs.CurveGraphError,
        families.FamilyError,
        engine.EngineError,
        basins.BasinError,
        chow.ChowError,
        divisors.DivisorError,
    }
    assert not hasattr(monomials, "OrderError")


def _float_uses(tree):
    """(line, what) for each float literal, `float(` call and `math` name
    other than `comb` in a parsed module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            yield node.lineno, repr(node.value)
        elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "float":
            yield node.lineno, "float("
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id == "math" and node.attr != "comb":
                yield node.lineno, "math." + node.attr
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            yield from ((node.lineno, "math." + a.name) for a in node.names if a.name != "comb")


def test_library_is_float_free():
    modules = sorted((ROOT / "src" / "gitcurves").glob("*.py"))
    assert modules
    found = [
        f"{path.name}:{line}: {what}"
        for path in modules
        for line, what in _float_uses(ast.parse(path.read_text(), str(path)))
    ]
    assert found == []
    # the guard sees each kind it refuses
    probe = "from math import sqrt\nimport math\nx = 0.5 + float(2) + math.log(3) + math.comb(2, 1)"
    assert sorted(what for _, what in _float_uses(ast.parse(probe))) == [
        "0.5", "float(", "math.log", "math.sqrt"
    ]


def _names(tree: ast.AST):
    """Each name that a parsed source reads: names, attributes, imported names."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.rsplit(".", 1)[-1]


def _unnamed_definitions(trees: dict, outside: set) -> list:
    """(module, name) of each module-level function or class of `trees`
    (module -> parsed source) that no code outside its own definition names
    and that `outside` does not hold; dunder names are Python's to call."""
    counts = Counter(name for tree in trees.values() for name in _names(tree))
    return [
        (module, node.name)
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("__")
        and node.name not in outside
        and counts[node.name] == Counter(_names(node))[node.name]
    ]


#: library functions without a caller, kept for the per-rosary product subgroups
UNCALLED = {"rosary_product_weights", "product_basin_generic"}


def test_library_has_no_helpers_that_nothing_names():
    trees = {
        path.name: ast.parse(path.read_text(), str(path))
        for path in sorted((ROOT / "src" / "gitcurves").glob("*.py"))
    }
    bench = {
        name
        for path in sorted((ROOT / "perfbench").glob("*.py"))
        for name in _names(ast.parse(path.read_text(), str(path)))
    }
    outside = bench | set(gitcurves._MODULE_OF)
    assert _unnamed_definitions(trees, outside | UNCALLED) == []
    # the allow-list holds only names that still have no caller
    assert {name for _, name in _unnamed_definitions(trees, outside)} == UNCALLED
    # the guard sees a helper named only by itself, and not one that others name
    probe = "def used():\n    pass\ndef lonely(n):\n    return lonely(n)\nclass Kept:\n    x = used()"
    assert _unnamed_definitions({"probe": ast.parse(probe)}, {"Kept"}) == [("probe", "lonely")]


def _imported_modules(tree: ast.AST):
    """(line, module) for each module an `import` or `from ... import` names."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from ((node.lineno, a.name) for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield node.lineno, node.module


def test_library_does_not_import_dataclasses():
    # records derive from `gitcurves._Record`: `dataclasses` would cost every
    # command its import and the methods it generates for each class
    found = [
        f"{path.name}:{line}"
        for path in sorted((ROOT / "src" / "gitcurves").glob("*.py"))
        for line, module in _imported_modules(ast.parse(path.read_text(), str(path)))
        if module.split(".")[0] == "dataclasses"
    ]
    assert found == []
    probe = "import dataclasses as d\nfrom dataclasses import field\nfrom . import dataclasses"
    assert [m for _, m in _imported_modules(ast.parse(probe))] == ["dataclasses", "dataclasses"]
