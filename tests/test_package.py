"""The package root: lazy exports and the one error base.

`import gitcurves` loads no submodule; each exported name is imported from
its submodule on first use.  The CLI reports every `GitcurvesError` as an
`error:` line, so the set of its subclasses is part of the contract.
"""

import subprocess
import sys

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
    assert issubclass(monomials.OrderError, ValueError)
    assert not issubclass(monomials.OrderError, GitcurvesError)
