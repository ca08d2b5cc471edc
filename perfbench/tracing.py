"""Spans around calls into the program's modules, and the per-module metrics built from them.

A span is (name, start, end, parent span index, operation id, note).  Spans
stay in memory and are written out once the run ends.  Calls from one module
into another are wrapped at the binding the caller uses, so only calls made
through that binding are recorded.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import statistics
import time
from typing import Callable, Optional

from workloads import Op, connected_subsets, graph_doc


class NullTracer:
    """Tracing off: spans cost one context-manager entry and record nothing."""

    enabled = False

    def span(self, name: str, note: Optional[dict] = None):
        return contextlib.nullcontext()


class Tracer:
    """Records spans in memory; `op` is the id of the operation running now."""

    enabled = True

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op: Optional[str] = None

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.op, None])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, idx: int, note: Optional[dict] = None) -> None:
        self._stack.pop()
        self.spans[idx][2] = time.perf_counter()
        self.spans[idx][5] = note

    @contextlib.contextmanager
    def span(self, name: str, note: Optional[dict] = None):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx, note)

    def caller(self) -> str:
        return self.spans[self._stack[-1]][0] if self._stack else ""

    def wrap(
        self,
        name: str,
        fn: Callable,
        *,
        consume: bool = False,
        note: Optional[Callable] = None,
        caller: str = "",
    ) -> Callable:
        """`fn` recording a span; `consume` lists a returned iterator inside the span,
        `note` maps the result to counts, and `caller` records only calls made
        directly from spans whose name starts with it."""

        def wrapper(*args, **kwargs):
            if caller and not self.caller().startswith(caller):
                return fn(*args, **kwargs)
            idx = self._open(name)
            out = None
            try:
                out = fn(*args, **kwargs)
                if consume:
                    out = list(out)
                return out
            finally:
                self._close(idx, note(out) if note and out is not None else None)

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self, G) -> None:
        """Wrap the module bindings the engine and basins layers call through."""
        eng, mono, bas, gr = G.engine, G.monomials, G.basins, G.graphs
        eng.degree_monomials = self.wrap(
            "monomials.degree_monomials", eng.degree_monomials, consume=True
        )
        mono.MonomialOrder.sorted_ascending = self.wrap(
            "monomials.sorted_ascending", mono.MonomialOrder.sorted_ascending
        )
        eng.evaluate_slice = self.wrap(
            "engine.evaluate_slice",
            eng.evaluate_slice,
            note=lambda s: {"monomials": len(s.monomials)},
        )
        for attr, value in list(vars(bas).items()):
            if callable(value) and getattr(value, "__module__", "") == gr.__name__ and not isinstance(value, type):
                setattr(bas, attr, self.wrap("graphs." + attr, value, caller="basins."))
        # basins imports this one inside its functions, from the graphs module
        gr.crossing_intersections = self.wrap(
            "graphs.crossing_intersections", gr.crossing_intersections, caller="basins."
        )

    def write(self, path) -> None:
        path.write_text(json.dumps({"fields": ["name", "start", "end", "parent", "op", "note"], "spans": self.spans}))


def op_layers(tr: Tracer, first: int) -> dict[str, float]:
    """Per-name sums (ms) of the spans recorded since the operation's root span
    `first`, plus the layers derived from them."""
    out: dict[str, float] = {}
    counts: dict[str, float] = {}
    root_dur = (tr.spans[first][2] - tr.spans[first][1]) * 1e3
    graphs_ms = 0.0
    graphs_calls = 0
    for name, start, end, parent, _op, note in tr.spans[first + 1 :]:
        dur = (end - start) * 1e3
        out[name] = out.get(name, 0.0) + dur
        if name.startswith("graphs.") and parent is not None and tr.spans[parent][0].startswith("basins."):
            graphs_ms += dur
            graphs_calls += 1
        for k, v in (note or {}).items():
            counts[k] = counts.get(k, 0) + v
    enum = out.get("monomials.degree_monomials", 0.0) + out.get("monomials.sorted_ascending", 0.0)
    out["enumerate"] = enum
    out["eliminate"] = out.get("engine.evaluate_slice", 0.0) - enum
    out["root"] = root_dur
    out["graphs_in_basins"] = graphs_ms
    out["surgery"] = root_dur - graphs_ms
    out["graphs_calls"] = graphs_calls
    out.update({"count." + k: v for k, v in counts.items()})
    return out


def build_ms(tr: Tracer, first: int) -> float:
    """Time (ms) in `families` builds among the spans since index `first`."""
    return sum((s[2] - s[1]) * 1e3 for s in tr.spans[first:] if s[0] == "families.build")


def supported_monomials(config, m: int) -> int:
    """Degree-m monomials whose support lies in one component's coordinates."""
    found = set()
    for cmap in config.parametrization.maps:
        coords = sorted(t.coord for t in cmap.terms)
        found.update(itertools.combinations_with_replacement(coords, m))
    return len(found)


def _median(reps: list[dict], key: str) -> float:
    return statistics.median(r.get(key, 0.0) for r in reps)


def _live(ops: list[Op], reps: dict[str, list[dict]]) -> list[Op]:
    """The operations that succeeded at least once; one that always fails has no spans."""
    return [o for o in ops if reps.get(o.id)]


def engine_metrics(ops: list[Op], reps: dict[str, list[dict]], results: dict, builds: float) -> dict:
    ops = _live(ops, reps)
    slice_monos = sum(reps[o.id][-1].get("count.monomials", 0) for o in ops)
    supported = sum(supported_monomials(o.info["config"], o.info["m"]) for o in ops)
    return {
        "monomials.enumerate_ms": sum(_median(reps[o.id], "enumerate") for o in ops),
        "engine.slice_ms": sum(_median(reps[o.id], "engine.evaluate_slice") for o in ops),
        "engine.index_ms": sum(_median(reps[o.id], "root") for o in ops),
        "engine.eliminate_ms": sum(_median(reps[o.id], "eliminate") for o in ops),
        "engine.slice_monomials": slice_monos,
        "engine.supported_monomials": supported,
        "engine.supported_ratio": supported / slice_monos,
        "engine.standard_count": sum(results[o.id].standard_count for o in ops),
        "families.build_ms": builds,
    }


GRAPH_PROBES = (
    ("graphs.subsets_ms", "find_elliptic_tails"),
    ("graphs.bridges_ms", "find_elliptic_bridges"),
    ("graphs.chains_ms", "find_elliptic_chains"),
    ("graphs.rosaries_ms", "find_rosaries"),
    ("graphs.classify_warm_ms", "classify"),
)


def graph_probe(tr: Tracer, G, graph) -> None:
    """Sweep a fresh copy once (elliptic tails), then query the same copy warm."""
    for metric, fn in GRAPH_PROBES:
        with tr.span("probe." + metric):
            getattr(G.graphs, fn)(graph)


def graphs_metrics(ops: list[Op], reps: dict[str, list[dict]]) -> dict:
    ops = _live(ops, reps)
    out = {m: sum(_median(reps[o.id], "probe." + m) for o in ops) for m, _ in GRAPH_PROBES}
    docs = [(o, graph_doc(o.info["graph"])) for o in ops]
    out["graphs.components"] = sum(len(d["components"]) for _, d in docs)
    out["graphs.connected_subsets"] = sum(
        connected_subsets(o.info["shape"], len(d["components"]), d) for o, d in docs
    )
    return out


def basins_metrics(ops: list[Op], reps: dict[str, list[dict]]) -> dict:
    ops = _live(ops, reps)

    def total(root: str) -> float:
        return sum(_median(reps[o.id], "root") for o in ops if o.root == root)

    return {
        "basins.c_rep_ms": total("basins.c_closed_orbit_rep"),
        "basins.h_rep_ms": total("basins.h_closed_orbit_rep"),
        "basins.replacements_ms": total("basins.enumerate_c_replacements"),
        "basins.graphs_calls": sum(reps[o.id][-1]["graphs_calls"] for o in ops),
        "basins.graphs_ms": sum(_median(reps[o.id], "graphs_in_basins") for o in ops),
        "basins.surgery_ms": sum(_median(reps[o.id], "surgery") for o in ops),
    }


def cli_metrics(ops: list[Op], reps: dict[str, list[dict]]) -> dict:
    ops = _live(ops, reps)
    paper = [reps[o.id] for o in ops if o.id == "cli/paper-check"]
    return {
        "paperchecks.run_ms": _median(paper[0], "paperchecks_ms") if paper else 0.0,
        "paperchecks.items": paper[0][-1].get("items", 0) if paper else 0,
        "cli.import_ms": statistics.median(_median(reps[o.id], "import_ms") for o in ops),
        "cli.command_ms": sum(_median(reps[o.id], "command_ms") for o in ops),
    }
