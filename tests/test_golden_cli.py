"""Golden digests of command-line outputs, run in-process through `cli.main`.

`golden_cli.json` maps each command line (its argv joined by spaces) to the
sha256 of `[exit code, stdout, stderr]` as compact JSON.  A refactor that is
meant to keep every output byte-identical must keep every digest.  To write
the file from a tree whose outputs are the reference, run

    PYTHONPATH=src python tests/test_golden_cli.py --write

from the repository root.
"""

import contextlib
import hashlib
import io
import json
import os
import sys

import pytest
from paths import ROOT

from gitcurves.cli import main

GOLDEN = ROOT / "tests" / "golden_cli.json"

FIXTURES = sorted(p.stem for p in (ROOT / "fixtures").glob("*.json"))

# the `index` workload's inputs in perfbench/workloads.py
INDEX_INPUTS = (
    ("closed-rosary", "--r", "6"),
    ("closed-rosary", "--r", "8"),
    ("broken-bead", "--r", "5"),
    ("broken-bead", "--r", "7"),
    ("open-rosary", "--g", "9", "--r", "5"),
    ("open-rosary", "--g", "12", "--r", "6"),
)

# closed rosary r = 4 has 12 coordinates
MONOMIAL_WEIGHTS = (
    (),  # canonical
    ("--weights", "1,1,0,0,2,2,1,1,0,0,2,2"),  # ties within and across components
    ("--weights", ",".join(["0"] * 12)),
)


def commands() -> list[list[str]]:
    cmds = [["paper-check", "--json"]]
    for family, *params in INDEX_INPUTS:
        cmds.append(["index", "--family", family, *params, "--m", "2,3,4,5", "--json"])
    for weights in MONOMIAL_WEIGHTS:
        for m in ("2", "3"):
            cmds.append(["index", "--family", "closed-rosary", "--r", "4", "--m", m,
                         *weights, "--monomials", "--json"])
    for name in FIXTURES:
        path = f"fixtures/{name}.json"
        cmds.append(["classify", "--in", path, "--json"])
        cmds.append(["closed-orbit", "--mode", "c", "--in", path, "--json"])
        cmds.append(["closed-orbit", "--mode", "h", "--in", path, "--json"])
        cmds.append(["replacements", "--in", path, "--json"])
    for e in ("-1", "1"):
        cmds.append(["basin", "--family", "open-rosary", "--g", "6", "--r", "3",
                     "--exponents", e, "--json"])
    for r in ("4", "6"):
        cmds.append(["basin", "--family", "closed-rosary", "--r", r, "--json"])
    # refusals: the slice budget, a degree below 2, a weight vector of the
    # wrong length, and a missing input file
    cmds += [
        ["index", "--family", "closed-rosary", "--r", "3334", "--m", "2", "--json"],
        ["index", "--family", "closed-rosary", "--r", "4", "--m", "1,2", "--json"],
        ["index", "--family", "closed-rosary", "--r", "4", "--weights", "1,2", "--json"],
        ["classify", "--in", "fixtures/no-such-file.json", "--json"],
    ]
    return cmds


def digest(argv: list[str]) -> str:
    """sha256 of [exit code, stdout, stderr] of `main(argv)`, run from the root."""
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        os.chdir(cwd)
    blob = json.dumps([code, out.getvalue(), err.getvalue()], separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def test_golden_covers_every_command():
    assert list(json.loads(GOLDEN.read_text())) == [" ".join(a) for a in commands()]


@pytest.mark.parametrize("argv", commands(), ids=" ".join)
def test_output_matches_golden(argv):
    assert digest(argv) == json.loads(GOLDEN.read_text())[" ".join(argv)]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_golden_cli.py --write")
    golden = {" ".join(a): digest(a) for a in commands()}
    GOLDEN.write_text(json.dumps(golden, indent=1) + "\n")
