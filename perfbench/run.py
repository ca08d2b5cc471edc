#!/usr/bin/env python3
"""Benchmark of gitcurves: four closed-loop workloads, one operation at a time.

    python3 perfbench/run.py --workload index --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --all --seed 1 --seconds 30

Run from the root of a checkout; the program is imported from `src/`.  Each
run repeats whole passes over the workload's fixed operation list, shuffled per
pass with the seed.  Each operation is timed right after a fixed reference
loop, scaled to the speed of a reference host, and its time is the median of
its repeats.  The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics with
`--trace 0`, the per-module metrics with `--trace 1`.  `--all` runs every
workload in its own process and prints one table.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace
from typing import Optional

import tracing as T
import workloads as W

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOADS = ("index", "classify", "closed_orbit", "cli")
SETUP_ROUNDS = 3
REFERENCE_ITERATIONS = 900
REFERENCE_WINDOW = 9
# Time of reference_loop() on the reference host: a 2.0 GHz Xeon vCPU in its
# fast state.  Every timing is reported scaled to that host (see README.md).
REFERENCE_S = 0.0025
E2E_UNITS = {
    "ops_per_s": "1/s",
    "small_op_ms": "ms",
    "large_op_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    return "ratio" if name.endswith("_ratio") else "count"


def reference_loop() -> int:
    """Fixed pure-Python work that uses no gitcurves code.

    Fraction sums and a tuple-keyed dict, as in the slices.  Its time follows
    the host's fast and slow states the way the program's operations do.
    """
    acc = Fraction(0)
    table = {}
    for i in range(1, REFERENCE_ITERATIONS):
        acc += Fraction(i % 7 + 1, i % 11 + 2)
        table[(i % 13, i % 17)] = acc
    return len(table)


class Speed:
    """The host's recent speed, from the reference loops run before each timing."""

    def __init__(self) -> None:
        self.refs: list[float] = []

    def sample(self) -> None:
        gc.collect()
        t0 = time.perf_counter()
        reference_loop()
        self.refs.append(time.perf_counter() - t0)

    def scale(self, seconds: float) -> float:
        """A raw time at reference speed, by the median of the last REFERENCE_WINDOW loops."""
        return seconds * REFERENCE_S / statistics.median(self.refs[-REFERENCE_WINDOW:])


def load_gitcurves() -> SimpleNamespace:
    """A fresh import of the program: modules, module state and caches all new."""
    for name in [n for n in sys.modules if n == "gitcurves" or n.startswith("gitcurves.")]:
        del sys.modules[name]
    import gitcurves.basins
    import gitcurves.engine
    import gitcurves.families
    import gitcurves.graphs
    import gitcurves.monomials

    return SimpleNamespace(
        basins=gitcurves.basins,
        engine=gitcurves.engine,
        families=gitcurves.families,
        graphs=gitcurves.graphs,
        monomials=gitcurves.monomials,
    )


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def build_ops(workload: str, G, tr, traced: bool, probe: bool = False) -> list[W.Op]:
    if workload == "index":
        return W.index_ops(G, tr, probe)
    if workload == "classify":
        return W.classify_ops(G, probe)
    if workload == "closed_orbit":
        return W.closed_orbit_ops(G, probe)
    return W.cli_ops(child_env(), traced, probe)


def setup_round(workload: str, tr, traced: bool, speed: Speed) -> tuple[float, object, list, float]:
    """Import, input generation and warm-up once.

    Returns (seconds at reference speed, modules, ops, families.build ms).
    """
    speed.sample()
    gc.collect()
    first = len(tr.spans) if traced else 0
    t0 = time.perf_counter()
    G = load_gitcurves() if workload != "cli" else None
    ops = build_ops(workload, G, tr, traced)
    if workload == "cli":
        proc = W.run_child(W.cli_argv(False) + ["--version"], child_env())
        if proc.returncode != 0:
            raise RuntimeError(f"gitcurves --version failed: {proc.stderr.strip()}")
    else:
        warm = next(o for o in ops if o.klass == "small")
        warm.run(warm.prepare("warm_"))
    dt = speed.scale(time.perf_counter() - t0)
    return dt, G, ops, T.build_ms(tr, first) if traced else 0.0


def repeat_setup(workload: str, tr, traced: bool, speed: Speed) -> tuple[float, float]:
    """One more set-up round in mid-run; the modules the operations use stay in place."""
    kept = {n: m for n, m in sys.modules.items() if n == "gitcurves" or n.startswith("gitcurves.")}
    dt, _G, _ops, build_ms = setup_round(workload, tr, traced, speed)
    for name in [n for n in sys.modules if n == "gitcurves" or n.startswith("gitcurves.")]:
        del sys.modules[name]
    sys.modules.update(kept)
    return dt, build_ms


def selftest(G) -> Optional[str]:
    """Feed the index check a wrong expectation, mu = 1-m on a closed rosary.

    Returns None when the check reports it as a failure, else an error.
    """
    cfg = G.families.build_closed_rosary_config(6)
    rep = G.engine.hilbert_index(cfg, G.families.canonical_1ps(cfg), 2)
    msg = W.check_index(
        "closed-rosary", {"r": 6}, 2, rep.mu, rep.standard_count, lambda f, p, m: 1 - m
    )
    print(f"selftest: wrong expectation mu=1-m on closed-rosary r=6 m=2 -> {msg}")
    return None if msg else "selftest: a wrong expectation was not reported"


class Runner:
    """Runs operations, timing each and, when traced, recording its spans and layers."""

    def __init__(self, seed: int, tr, G, speed: Speed) -> None:
        self.seed = seed
        self.tr = tr
        self.G = G
        self.speed = speed
        self.times: dict[str, list[float]] = {}  # at reference speed
        self.raw: dict[str, list[float]] = {}
        self.layers: dict[str, list[dict]] = {}
        self.results: dict[str, object] = {}
        self.errors: dict[str, str] = {}
        self.wrong: dict[str, str] = {}
        self.setups: list[float] = []
        self.builds: list[float] = []

    def run(self, op: W.Op, prefix: str) -> bool:
        """One timed execution, just after one reference loop; returns False
        when the operation raised."""
        tr = self.tr
        inp = op.prepare(prefix)
        self.speed.sample()
        gc.collect()
        tr.op = op.id
        first = len(tr.spans) if tr.enabled else 0
        try:
            with tr.span(op.root):
                t0 = time.perf_counter()
                out = op.run(inp)
                dt = time.perf_counter() - t0
        except Exception as exc:  # a failed operation is counted, not fatal
            self.errors.setdefault(op.id, f"{type(exc).__name__}: {exc}")
            return False
        self.raw.setdefault(op.id, []).append(dt)
        self.times.setdefault(op.id, []).append(self.speed.scale(dt))
        try:
            msg = op.check(out)
        except Exception as exc:  # output of an unexpected shape is a wrong output
            msg = f"check raised {type(exc).__name__}: {exc}"
        if msg:
            self.wrong.setdefault(op.id, msg)
        if tr.enabled:
            if op.root == "graphs.classify":
                T.graph_probe(tr, self.G, op.prepare(prefix + "t"))
            layer = T.op_layers(tr, first)
            if op.root.startswith("cli.") and out.stderr.strip().endswith("}"):
                layer.update(json.loads(out.stderr.strip().splitlines()[-1]))
            self.layers.setdefault(op.id, []).append(layer)
            if op.root == "engine.hilbert_index":
                self.results[op.id] = out
        return True

    def prefix(self, op: W.Op, pass_no: int, k: int, tag: str = "") -> str:
        base = f"p{pass_no}o{k}{tag}_"
        return f"s{self.seed}{base}" if op.seeded else base


def measure(workload: str, ops: list[W.Op], seconds: float, runner: Runner, rng: random.Random):
    """Whole passes until the next one would end after `seconds`; at least one.

    Each pass runs every operation `op.repeats` times and one more set-up
    round, in an order shuffled with the seed.
    """
    slots: list[tuple] = [(k, j) for k, op in enumerate(ops) for j in range(op.repeats)]
    slots.append(("setup",))
    attempted = failed = passes = 0
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        rng.shuffle(slots)
        for slot in slots:
            if slot[0] == "setup":
                runner.tr.op = "setup"
                dt, build_ms = repeat_setup(workload, runner.tr, runner.tr.enabled, runner.speed)
                runner.setups.append(dt)
                runner.builds.append(build_ms)
            else:
                k, j = slot
                attempted += 1
                if not runner.run(ops[k], runner.prefix(ops[k], passes, k, f"r{j}")):
                    failed += 1
        passes += 1
        now = time.perf_counter()
        if now - start + (now - pass_start) > seconds:
            return attempted, failed, passes


def end_to_end(ops: list[W.Op], times: dict, setup_s: float, rss_mb: float) -> dict:
    per_op = {o.id: statistics.median(times[o.id]) for o in ops if times.get(o.id)}
    small = [per_op[o.id] for o in ops if o.klass == "small" and o.id in per_op]
    large = [per_op[o.id] for o in ops if o.klass == "large" and o.id in per_op]
    return {
        "ops_per_s": len(per_op) / sum(per_op.values()),
        "small_op_ms": statistics.median(small) * 1e3,
        "large_op_ms": statistics.median(large) * 1e3,
        "setup_s": setup_s,
        "peak_rss_mb": rss_mb,
    }


def layer_metrics(workload: str, ops, runner: Runner, build_ms: float) -> dict:
    if workload == "index":
        return T.engine_metrics(ops, runner.layers, runner.results, build_ms)
    if workload == "classify":
        return T.graphs_metrics(ops, runner.layers)
    if workload == "closed_orbit":
        return T.basins_metrics(ops, runner.layers)
    return T.cli_metrics(ops, runner.layers)


def probe_layers(own: str, runner: Runner) -> dict:
    """Per-module metrics of the layers the workload does not reach, from one
    traced pass over each other workload's probe set."""
    out = {}
    for workload in WORKLOADS:
        if workload == own:
            continue
        first = len(runner.tr.spans)
        ops = build_ops(workload, runner.G, runner.tr, True, probe=True)
        build_ms = T.build_ms(runner.tr, first)
        for k, op in enumerate(ops):
            if not runner.run(op, runner.prefix(op, 0, k, tag="probe")):
                runner.wrong.setdefault(op.id, runner.errors[op.id])
        out.update(layer_metrics(workload, ops, runner, build_ms))
    return out


def run_workload(args) -> int:
    traced = bool(args.trace)
    tr = T.Tracer() if traced else T.NullTracer()
    speed = Speed()
    rounds = [setup_round(args.workload, tr, traced, speed) for _ in range(SETUP_ROUNDS)]
    _dt, G, ops, _build = rounds[-1]
    if G is None:
        G = load_gitcurves()
    if traced:
        tr.install(G)
    problems = [p for p in [selftest(G)] if p]
    runner = Runner(args.seed, tr, G, speed)
    runner.setups = [r[0] for r in rounds]
    runner.builds = [r[3] for r in rounds]
    rng = random.Random(f"{args.workload}:{args.seed}")
    attempted, failed, passes = measure(args.workload, ops, args.seconds, runner, rng)
    refs = speed.refs
    setup_s = statistics.median(runner.setups)
    build_ms = statistics.median(runner.builds)
    who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
    e2e = end_to_end(ops, runner.times, setup_s, resource.getrusage(who).ru_maxrss / 1024)
    if traced:
        metrics = layer_metrics(args.workload, ops, runner, build_ms)
        metrics.update(probe_layers(args.workload, runner))
        units = {}
    else:
        metrics = e2e
        units = E2E_UNITS

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: {passes} passes, "
          f"{attempted} operations attempted, {failed} failed")
    print(f"reference_loop_ms min {min(refs) * 1e3:.3f} median {statistics.median(refs) * 1e3:.3f} "
          f"({len(refs)} runs, one before each timing; {REFERENCE_S * 1e3:g} ms on the reference host)")
    for op_id, msg in sorted(runner.errors.items()):
        print(f"failed: {op_id}: {msg}")
    for op_id, msg in sorted(runner.wrong.items()):
        print(f"WRONG: {op_id}: {msg}")
        problems.append(op_id)
    if traced:
        print("traced end-to-end: " + " ".join(f"{k}={v:.6g}" for k, v in e2e.items()))
    for name, value in metrics.items():
        print(f"  {name:28s} {value:14.6g} {units.get(name, '')}")

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload, "seed": args.seed, "passes": passes,
        "attempted": attempted, "failed": failed, "problems": problems,
        "reference_loop_ms": [c * 1e3 for c in refs], "end_to_end": e2e, "metrics": metrics,
        "op_ms_at_reference": {k: [t * 1e3 for t in v] for k, v in runner.times.items()},
        "op_ms_raw": {k: [t * 1e3 for t in v] for k, v in runner.raw.items()},
    }
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1))
    if traced:
        tr.write(OUT / f"{stem}-spans.json")

    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units.get(k, layer_unit(k))} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in its own process; one table of metrics with units."""
    status = 0
    print(f"{'workload':13s} {'metric':28s} {'value':>14s} unit   attempted failed correct")
    for workload in WORKLOADS:
        argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed",
                str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
        if proc.returncode != 0:
            print(f"{workload}: exit code {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            status = 1
            continue
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        status |= not res["correct"]
        for name, m in res["metrics"].items():
            print(f"{workload:13s} {name:28s} {m['value']:14.6g} {m['unit']:6s} "
                  f"{res['attempted']:9d} {res['failed']:6d} {res['correct']}")
    return status


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--all", action="store_true", help="run every workload, one process each")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "gitcurves" / "__init__.py").is_file():
        print(f"error: no gitcurves sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.all:
        return run_all(args)
    if args.workload is None:
        p.error("give --workload or --all")
    return run_workload(args)


if __name__ == "__main__":
    raise SystemExit(main())
