"""The benchmark's in-process operations run and pass their own checks.

`perfbench/workloads.py` builds its inputs through the graph model (for
example `relabel` rebuilds every graph it times), so a change to that model
can break the benchmark without breaking any other test.  Here every
`index`, `classify` and `closed_orbit` operation runs once, untimed, on the
modules imported from `src/`.
"""

import contextlib
import importlib.util
import pathlib
import sys
from types import SimpleNamespace

import pytest

import gitcurves.basins
import gitcurves.engine
import gitcurves.families
import gitcurves.graphs
import gitcurves.monomials

WORKLOADS = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"

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
