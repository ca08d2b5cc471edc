"""Each command loads only the modules it uses.

Start-up is most of a CLI command's time, and every module is compiled from
source when no bytecode cache exists.  Each case runs one command in a fresh
interpreter, the way `python -m gitcurves.cli` does, and pins the exact set of
package modules it leaves loaded: one new top-level import would otherwise
silently make every command pay for the whole package again.
"""

import json
import subprocess
import sys

import pytest
from paths import ROOT, src_env

PROBE = """
import json, runpy, sys
sys.argv = ["gitcurves", *json.loads(sys.argv[1])]
try:
    runpy.run_module("gitcurves.cli", run_name="__main__")
except SystemExit:
    pass
print(json.dumps(sorted(m for m in sys.modules if m.startswith("gitcurves"))))
"""

GRAPH_COMMAND = {"gitcurves", "gitcurves.graphs"}
BASIN_COMMAND = GRAPH_COMMAND | {"gitcurves.families", "gitcurves.basins"}
ALL_MODULES = BASIN_COMMAND | {
    "gitcurves.chow",
    "gitcurves.divisors",
    "gitcurves.engine",
    "gitcurves.monomials",
    "gitcurves.paperchecks",
}


def loaded_modules(argv: list[str]) -> set[str]:
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, json.dumps(argv)],
        cwd=ROOT,
        env=src_env(),
        capture_output=True,
        text=True,
        check=True,
    )
    return set(json.loads(proc.stdout.strip().splitlines()[-1]))


@pytest.mark.parametrize(
    "argv, modules",
    [
        (["--version"], {"gitcurves"}),
        (["classify", "--in", "fixtures/bridge-length-1.json"], GRAPH_COMMAND),
        (["divisor", "lambda-n", "--n", "2", "--g", "10"], {"gitcurves", "gitcurves.divisors"}),
        (
            ["chow-certify", "--case", "genus-one-tacnode-tail", "--g", "6"],
            {"gitcurves", "gitcurves.chow", "gitcurves.families", "gitcurves.graphs"},
        ),
        (["closed-orbit", "--mode", "c", "--in", "fixtures/bridge-length-1.json"], BASIN_COMMAND),
        (
            ["index", "--family", "closed-rosary", "--r", "4"],
            GRAPH_COMMAND | {"gitcurves.families", "gitcurves.engine", "gitcurves.monomials"},
        ),
        (["paper-check"], ALL_MODULES),
    ],
    ids=["version", "classify", "divisor", "chow-certify", "closed-orbit", "index", "paper-check"],
)
def test_command_loads_only_its_modules(argv, modules):
    assert loaded_modules(argv) == modules
