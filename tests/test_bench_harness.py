"""The benchmark's operations run and pass their own checks.

`perfbench/workloads.py` builds its inputs through the graph model (for
example `relabel` rebuilds every graph it times), so a change to that model
can break the benchmark without breaking any other test.  Here every
`index`, `classify` and `closed_orbit` operation runs once, untimed, on the
modules imported from `src/`.  The traced `cli` workload runs each command
through `perfbench/cli_child.py`, which replaces `cli.run_paper_check` with a
timed wrapper; the last tests run that child as the benchmark does.
"""

import contextlib
import importlib.util
import json
import subprocess
import sys
from types import SimpleNamespace

import pytest

import gitcurves.basins
import gitcurves.engine
import gitcurves.families
import gitcurves.graphs
import gitcurves.monomials
from paths import ROOT, src_env

WORKLOADS = ROOT / "perfbench" / "workloads.py"
CLI_CHILD = ROOT / "perfbench" / "cli_child.py"

G = SimpleNamespace(
    basins=gitcurves.basins,
    engine=gitcurves.engine,
    families=gitcurves.families,
    graphs=gitcurves.graphs,
    monomials=gitcurves.monomials,
)


def load_workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def build_ops(W, workload):
    if workload == "index":
        tracer = SimpleNamespace(span=lambda name, note=None: contextlib.nullcontext())
        return W.index_ops(G, tracer)
    if workload == "classify":
        return W.classify_ops(G)
    return W.closed_orbit_ops(G)


@pytest.mark.parametrize("workload", ["index", "classify", "closed_orbit"])
def test_every_operation_passes_its_check(workload):
    ops = build_ops(load_workloads(), workload)
    assert ops
    failures = {}
    for op in ops:
        message = op.check(op.run(op.prepare("t_")))
        if message is not None:
            failures[op.id] = message
    assert failures == {}


@pytest.mark.parametrize(
    "argv, keys",
    [
        (["paper-check", "--json"], {"import_ms", "command_ms", "paperchecks_ms", "items"}),
        (["classify", "--in", "fixtures/bridge-length-1.json", "--json"], {"import_ms", "command_ms"}),
    ],
    ids=["paper-check", "classify"],
)
def test_cli_child_reports_its_timings(argv, keys):
    proc = subprocess.run(
        [sys.executable, str(CLI_CHILD), *argv],
        cwd=ROOT,
        env=src_env(),
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    json.loads(proc.stdout)
    timings = json.loads(proc.stderr.strip().splitlines()[-1])
    assert set(timings) == keys
    if "items" in keys:
        assert timings["items"] == 41


def test_traced_closed_orbit_run_passes():
    # the tracer wraps `graphs.crossing_intersections` and every `graphs`
    # function that `basins` imports, so a renamed library function breaks
    # `--trace 1` before it breaks anything else
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "closed_orbit", "--seconds", "0",
         "--trace", "1"],
        cwd=ROOT,
        env=src_env(),
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
