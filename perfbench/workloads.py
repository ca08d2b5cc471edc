"""Inputs, operations, size classes and expected values of the four workloads.

Every expected value here is derived from the paper's rules or from closed
forms (see README.md); none is computed by gitcurves.  The program's modules
arrive as a namespace `G` after each set-up round re-imports them, so nothing
in this file imports gitcurves itself.
"""

from __future__ import annotations

import itertools
import json
import math
import subprocess
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"

DELTA = {"node": 1, "tacnode": 2}
FLAG_NAMES = ("dm_stable", "pseudostable", "c_semistable", "c_stable", "h_semistable", "h_stable")


@dataclass
class Op:
    """One operation of a workload.

    `prepare(prefix)` makes the input outside the timed region (a freshly
    relabelled graph where the program caches per graph), `run` is timed, and
    `check` returns None or a message naming the wrong value.
    """

    id: str
    klass: str  # "small", "large" or "" (neither size class)
    run: Callable[[object], object]
    check: Callable[[object], Optional[str]]
    prepare: Callable[[str], object] = lambda prefix: None
    root: str = ""  # span name of the operation in traced runs
    seeded: bool = True  # False: the input never depends on --seed
    repeats: int = 1  # runs per pass
    info: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# independent oracles: plain Python over graph documents and numbers
# ---------------------------------------------------------------------------


def graph_doc(g) -> dict:
    return g if isinstance(g, dict) else g.to_dict()


def doc_genus(doc: dict) -> int:
    """Arithmetic genus: sum of (genus + cusps) plus deltas, minus (#components - 1)."""
    comps = doc["components"]
    total = sum(c["genus"] + c.get("cusps", 0) for c in comps)
    total += sum(DELTA[x["kind"]] for x in doc["intersections"])
    return total - (len(comps) - 1)


def doc_tacnodes(doc: dict) -> int:
    return sum(1 for x in doc["intersections"] if x["kind"] == "tacnode")


def brute_connected_subsets(doc: dict) -> int:
    """Nonempty connected component subsets, by testing every subset."""
    ids = [c["id"] for c in doc["components"]]
    adj = {cid: set() for cid in ids}
    for x in doc["intersections"]:
        a, b = x["ends"][0][0], x["ends"][1][0]
        adj[a].add(b)
        adj[b].add(a)
    count = 0
    for k in range(1, len(ids) + 1):
        for sub in itertools.combinations(ids, k):
            inside = set(sub)
            seen, stack = {sub[0]}, [sub[0]]
            while stack:
                for nb in adj[stack.pop()] & inside - seen:
                    seen.add(nb)
                    stack.append(nb)
            count += len(seen) == len(inside)
    return count


def connected_subsets(shape: str, n: int, doc: dict) -> int:
    if shape == "path":
        return n * (n + 1) // 2
    if shape == "cycle":
        return n * (n - 1) + 1
    return brute_connected_subsets(doc)


def hilbert_poly(g: int, m: int) -> int:
    return (4 * g - 4) * m + 1 - g


def family_genus(family: str, params: dict) -> int:
    return params["g"] if family == "open-rosary" else params["r"] + 1


def expected_mu(family: str, params: dict, m: int) -> Fraction:
    """0 for closed and even-r open rosaries, 1-m for broken beads and odd-r open ones."""
    if family == "closed-rosary" or (family == "open-rosary" and params["r"] % 2 == 0):
        return Fraction(0)
    return Fraction(1 - m)


def check_index(
    family: str, params: dict, m: int, mu, standard_count: int, expect_mu=expected_mu
) -> Optional[str]:
    want_mu = Fraction(expect_mu(family, params, m))
    want_n = hilbert_poly(family_genus(family, params), m)
    if Fraction(mu) != want_mu or standard_count != want_n:
        return f"mu={mu} standard={standard_count}, expected mu={want_mu} standard={want_n}"
    return None


def flags_for(kind: str, n: int = 0) -> dict:
    """Stability flags from the paper's rules for each input shape."""
    table = {
        "closed": (False, False, True, False, True, n % 2 == 1),
        "broken": (False, False, True, False, False, False),
        "bridge1": (True, True, True, False, False, False),
        "stable": (True, True, True, True, True, True),
        "tail": (True, False, False, False, False, False),
        "tacnodal-tail": (False, False, False, False, False, False),
        "weak": (False, False, True, False, True, False),
        "rosary-chain": (False, False, True, False, False, False),
    }
    return dict(zip(FLAG_NAMES, table[kind]))


# Small-class operations in the in-process workloads run this many times per
# pass, so that their medians rest on more samples.
SMALL_REPEATS = 6

# fixture name -> flag rule; README.md gives the reason for each.
FIXTURE_KINDS = {
    "bridge-length-1": "bridge1",
    "bridge-length-2": "bridge1",
    "broken-rosary-5": "broken",
    "closed-rosary-6": "closed",
    "closed-weak-chain-2": "weak",
    "open-rosary-config-6-3": "rosary-chain",
    "smooth-genus-5": "stable",
    "tacnodal-tail": "tacnodal-tail",
    "weak-chains-rational-bridge": "weak",
    "weak-chains-shared-node": "weak",
}


def check_flags(flags: dict, want: dict) -> Optional[str]:
    if flags != want:
        bad = [k for k in FLAG_NAMES if flags.get(k) != want[k]]
        return f"flags {bad} differ from the expected {want}"
    return None


def genus_counts(doc: dict) -> tuple[int, int, int]:
    """(components of genus >= 2, genus-one components, tacnodes)."""
    anchors = sum(1 for c in doc["components"] if c["genus"] >= 2)
    ones = sum(1 for c in doc["components"] if c["genus"] == 1)
    return anchors, ones, doc_tacnodes(doc)


def c_rep_shape(doc: dict) -> tuple[int, int]:
    """Components and tacnodes of the c-representative.

    Pseudostable reduction turns each tacnode into a genus-one bridge, rational
    components with two nodes are contracted, and every genus-one link becomes
    a length-two rosary: 2+2k for a bridge chain of k links, 2+4k for W_k.
    """
    anchors, ones, tac = genus_counts(doc)
    return anchors + 2 * (ones + tac), ones + tac


def h_rep_shape_open(doc: dict) -> tuple[int, int]:
    """Each genus-one link of an open weak chain becomes a three-bead rosary: 2+3k for W_k."""
    anchors, ones, _tac = genus_counts(doc)
    return anchors + 3 * ones, 2 * ones


def h_rep_shape_closed_weak(doc: dict) -> tuple[int, int]:
    """A closed weak chain of r genus-one links becomes the closed rosary of length 2r."""
    _anchors, ones, _tac = genus_counts(doc)
    return 2 * ones, 2 * ones


def h_rep_shape_fixed(doc: dict) -> tuple[int, int]:
    """An unbroken closed rosary of odd genus is already the closed-orbit curve."""
    return len(doc["components"]), doc_tacnodes(doc)


def check_rep(out, inp, shape: Callable[[dict], tuple[int, int]]) -> Optional[str]:
    out_doc, in_doc = graph_doc(out), graph_doc(inp)
    want = (doc_genus(in_doc),) + shape(in_doc)
    got = (doc_genus(out_doc), len(out_doc["components"]), doc_tacnodes(out_doc))
    if got != want:
        return f"(genus, components, tacnodes) = {got}, expected {want}"
    return None


def check_replacements(outs, inp) -> Optional[str]:
    """2^k graphs for k bridge links; j chosen links give j tacnodes, C(k, j) times."""
    in_doc = graph_doc(inp)
    k = genus_counts(in_doc)[1]
    docs = [graph_doc(o) for o in outs]
    want_dist = {j: math.comb(k, j) for j in range(k + 1)}
    dist: dict[int, int] = {}
    for d in docs:
        dist[doc_tacnodes(d)] = dist.get(doc_tacnodes(d), 0) + 1
    genus = doc_genus(in_doc)
    if len(docs) != 2**k or dist != want_dist or any(doc_genus(d) != genus for d in docs):
        return f"{len(docs)} replacements with tacnode counts {dist}, expected {2**k} with {want_dist}"
    return None


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------


def relabel(G, g, prefix: str):
    """The same curve with every component id prefixed: a new graph to the caches."""
    gr = G.graphs
    return gr.CurveGraph(
        tuple(gr.Component(prefix + c.id, c.genus, c.cusps, c.label) for c in g.components),
        tuple(
            gr.Intersection(x.kind, tuple((prefix + cid, slot) for cid, slot in x.ends))
            for x in g.intersections
        ),
        tuple((prefix + cid, label) for cid, label in g.marks),
    )


def weak_chain(G, k: int):
    """W_k: genus-2 end, tacnode, k genus-1 links joined by tacnodes, node, genus-2 end."""
    gr = G.graphs
    names = ["C1"] + [f"E{i}" for i in range(1, k + 1)] + ["C2"]
    comps = [gr.Component(n, 2 if n[0] == "C" else 1) for n in names]
    xs = [
        gr.Intersection("tacnode" if i < k else "node", ((names[i], 1), (names[i + 1], 0)))
        for i in range(k + 1)
    ]
    return gr.CurveGraph(tuple(comps), tuple(xs))


def fixtures(G) -> dict:
    out = {}
    for path in sorted(FIXTURES.glob("*.json")):
        out[path.stem] = G.graphs.CurveGraph.from_dict(json.loads(path.read_text()))
    return out


INDEX_INPUTS = (
    ("closed-rosary", {"r": 6}),
    ("closed-rosary", {"r": 8}),
    ("broken-bead", {"r": 5}),
    ("broken-bead", {"r": 7}),
    ("open-rosary", {"g": 9, "r": 5}),
    ("open-rosary", {"g": 12, "r": 6}),
)
INDEX_DEGREES = (2, 3, 4, 5)


def _pstr(params: dict) -> str:
    return "-".join(f"{k}{v}" for k, v in params.items())


def index_ops(G, tr, probe: bool = False) -> list[Op]:
    fam, eng = G.families, G.engine
    builders = {
        "closed-rosary": lambda p: fam.build_closed_rosary_config(p["r"]),
        "broken-bead": lambda p: fam.build_broken_bead_config(p["r"]),
        "open-rosary": lambda p: fam.build_open_rosary_config(p["g"], p["r"]),
    }
    ops = []
    for family, params in INDEX_INPUTS:
        with tr.span("families.build"):
            cfg = builders[family](params)
            rho = fam.canonical_1ps(cfg)
        for m in INDEX_DEGREES[:1] if probe else INDEX_DEGREES:
            ops.append(
                Op(
                    id=f"index/{family}-{_pstr(params)}/m{m}",
                    klass={2: "small", 5: "large"}.get(m, ""),
                    run=lambda _, cfg=cfg, rho=rho, m=m: eng.hilbert_index(cfg, rho, m),
                    check=lambda rep, f=family, p=params, m=m: check_index(
                        f, p, m, rep.mu, rep.standard_count
                    ),
                    root="engine.hilbert_index",
                    repeats=SMALL_REPEATS if m == 2 else 1,
                    info={"config": cfg, "m": m},
                )
            )
    return ops


def _graph_op(G, id_, klass, base, run, check, root, info=None, seeded=True) -> Op:
    return Op(
        id=id_,
        klass=klass,
        run=run,
        check=check,
        prepare=lambda prefix: relabel(G, base, prefix),
        root=root,
        seeded=seeded,
        repeats=SMALL_REPEATS if klass == "small" else 1,
        info=dict(info or {}, graph=base),
    )


def classify_ops(G, probe: bool = False) -> list[Op]:
    gr = G.graphs
    shapes = []  # (id, graph, flag rule, shape for subset count)
    for n in (9, 10, 11, 12, 14, 16, 18, 20):
        shapes.append((f"closed-{n}", gr.closed_rosary_graph(n), flags_for("closed", n), "cycle"))
    for n in (7, 9, 17):
        shapes.append((f"broken-{n}", gr.closed_rosary_graph(n, [0]), flags_for("broken"), "cycle"))
    for k in (4, 6, 8, 12, 16, 18):
        shapes.append((f"bridge1-{k}", gr.bridge_chain_graph([1] * k), flags_for("bridge1"), "path"))
    for k in (4, 8, 16):
        shapes.append((f"bridge2-{k}", gr.bridge_chain_graph([2] * k), flags_for("stable"), "path"))
    for k in (4, 8, 16):
        shapes.append(
            (f"tail-{k}", gr.bridge_chain_graph([1] * k, (2, 1)), flags_for("tail"), "path")
        )
    for name, g in fixtures(G).items():
        shapes.append((f"fixture-{name}", g, flags_for(FIXTURE_KINDS[name], len(g.components)), ""))
    ops = []
    for id_, g, want, shape in shapes:
        n = len(g.components)
        klass = "small" if n <= 10 else "large" if 18 <= n <= 20 else ""
        if probe and klass != "small":
            continue
        ops.append(
            _graph_op(
                G,
                f"classify/{id_}",
                klass,
                g,
                run=gr.classify,
                check=lambda flags, want=want: check_flags(flags.as_dict(), want),
                root="graphs.classify",
                info={"shape": shape},
            )
        )
    return ops


def closed_orbit_ops(G, probe: bool = False) -> list[Op]:
    gr, bas = G.graphs, G.basins
    fx = fixtures(G)
    items = []  # (id, graph, function, shape rule or None for replacements, is fixture)
    c_fixtures = (
        "bridge-length-1", "bridge-length-2", "broken-rosary-5", "closed-rosary-6",
        "closed-weak-chain-2", "open-rosary-config-6-3", "weak-chains-rational-bridge",
        "weak-chains-shared-node",
    )
    h_fixtures = {
        "closed-rosary-6": h_rep_shape_fixed,
        "closed-weak-chain-2": h_rep_shape_closed_weak,
        "weak-chains-rational-bridge": h_rep_shape_open,
        "weak-chains-shared-node": h_rep_shape_open,
    }
    for k in range(2, 10):
        items.append((f"c/bridge-{k}", gr.bridge_chain_graph([1] * k), "c", c_rep_shape, False))
        items.append((f"replacements/bridge-{k}", gr.bridge_chain_graph([1] * k), "r", None, False))
    for k in range(1, 7):
        items.append((f"h/weak-{k}", weak_chain(G, k), "h", h_rep_shape_open, False))
    for k in range(1, 5):
        items.append((f"c/weak-{k}", weak_chain(G, k), "c", c_rep_shape, False))
    for name in c_fixtures:
        items.append((f"c/fixture-{name}", fx[name], "c", c_rep_shape, True))
    for name, rule in h_fixtures.items():
        items.append((f"h/fixture-{name}", fx[name], "h", rule, True))
    for name in ("bridge-length-1", "bridge-length-2", "smooth-genus-5"):
        items.append((f"replacements/fixture-{name}", fx[name], "r", None, True))
    funcs = {
        "c": ("basins.c_closed_orbit_rep", bas.c_closed_orbit_rep),
        "h": ("basins.h_closed_orbit_rep", bas.h_closed_orbit_rep),
        "r": ("basins.enumerate_c_replacements", bas.enumerate_c_replacements),
    }
    ops = []
    for id_, g, mode, rule, is_fixture in items:
        if probe and not is_fixture:
            continue
        root, fn = funcs[mode]
        if rule is None:
            check = lambda outs, g=g: check_replacements(outs, g)
            klass = "small" if is_fixture else ""
        else:
            check = lambda out, g=g, rule=rule: check_rep(out, g, rule)
            klass = "small" if is_fixture else "large" if 17 <= rule(g.to_dict())[0] <= 20 else ""
        ops.append(_graph_op(G, f"closed_orbit/{id_}", klass, g, fn, check, root))
    if not probe:
        # Kept although it fails today: the 14-component input is accepted but
        # its own 26-component representative exceeds the component cap.
        g = gr.bridge_chain_graph([1] * 12)
        ops.append(
            _graph_op(
                G, "closed_orbit/c/bridge-12", "", g, bas.c_closed_orbit_rep,
                lambda out, g=g: check_rep(out, g, c_rep_shape),
                "basins.c_closed_orbit_rep", seeded=False,
            )
        )
    return ops


# ---------------------------------------------------------------------------
# cli: a fixed script of commands, each in a fresh interpreter
# ---------------------------------------------------------------------------


def _fixture_doc(name: str) -> dict:
    return json.loads((FIXTURES / f"{name}.json").read_text())


def _check_paper(doc: dict) -> Optional[str]:
    if (doc["checks"], doc["failures"], doc["passed"]) != (41, 0, True):
        return f"paper-check {doc['checks'] - doc['failures']}/{doc['checks']} passed, expected 41/41"
    return None


def _check_index_doc(doc: dict, family: str, params: dict) -> Optional[str]:
    for rep in doc["reports"]:
        msg = check_index(family, params, rep["m"], rep["mu"], rep["standard_count"])
        if msg:
            return f"m={rep['m']}: {msg}"
    return None


def _check_classify_doc(doc: dict, name: str) -> Optional[str]:
    fixture = _fixture_doc(name)
    if doc["genus"] != doc_genus(fixture):
        return f"genus {doc['genus']}, expected {doc_genus(fixture)}"
    return check_flags(doc["flags"], flags_for(FIXTURE_KINDS[name], len(fixture["components"])))


def _check_divisor_doc(doc: dict, n: int) -> Optional[str]:
    want = {"lambda": str(6 * n * n - 6 * n + 1), "delta": str(-math.comb(n, 2))}
    return None if doc == want else f"{doc}, expected {want}"


def _check_basin_doc(doc: dict, g: int, r: int) -> Optional[str]:
    """Open rosary (g, r): a cycle D -node- L1 =t= ... =t= L(r+1) -node- D.

    Smoothing preserves the genus.  Smoothing s < n of the n joints of a cycle
    of n components leaves n - s components, and each subset of the smoothable
    singularities is one partial smoothing.
    """
    kinds = ["node"] + ["tacnode"] * r + ["node"]
    smooth = sum(1 for c in doc["classifications"] if c["status"] == "smoothable")
    n = r + 2
    generic = doc["generic_member"]
    want = (kinds, 2**smooth, g, n - smooth if smooth < n else 1)
    have = (
        [c["kind"] for c in doc["classifications"]],
        doc["partial_smoothings"],
        doc_genus(generic),
        len(generic["components"]),
    )
    return None if want == have else f"basin {have}, expected {want}"


def _check_closed_orbit_doc(doc: dict, name: str, rule) -> Optional[str]:
    fixture = _fixture_doc(name)
    if doc["input_genus"] != doc_genus(fixture):
        return f"input genus {doc['input_genus']}, expected {doc_genus(fixture)}"
    return check_rep(doc["representative"], fixture, rule)


def cli_commands() -> list[tuple[str, list[str], Callable[[dict], Optional[str]]]]:
    cmds = [("paper-check", ["paper-check"], _check_paper)]
    for family, params in (
        ("closed-rosary", {"r": 6}),
        ("broken-bead", {"r": 5}),
        ("open-rosary", {"g": 6, "r": 3}),
    ):
        argv = ["index", "--family", family, "--m", "2,3,4"]
        for k, v in params.items():
            argv += [f"--{k}", str(v)]
        cmds.append((f"index-{family}", argv, lambda d, f=family, p=params: _check_index_doc(d, f, p)))
    for name in sorted(FIXTURE_KINDS):
        cmds.append(
            (
                f"classify-{name}",
                ["classify", "--in", f"fixtures/{name}.json"],
                lambda d, n=name: _check_classify_doc(d, n),
            )
        )
    for mode, name, rule in (
        ("c", "bridge-length-1", c_rep_shape),
        ("c", "weak-chains-shared-node", c_rep_shape),
        ("h", "closed-weak-chain-2", h_rep_shape_closed_weak),
        ("h", "weak-chains-rational-bridge", h_rep_shape_open),
    ):
        cmds.append(
            (
                f"closed-orbit-{mode}-{name}",
                ["closed-orbit", "--mode", mode, "--in", f"fixtures/{name}.json"],
                lambda d, n=name, rule=rule: _check_closed_orbit_doc(d, n, rule),
            )
        )
    for name in ("bridge-length-1", "bridge-length-2"):
        cmds.append(
            (
                f"replacements-{name}",
                ["replacements", "--in", f"fixtures/{name}.json"],
                lambda d, n=name: check_replacements(d["configurations"], _fixture_doc(n)),
            )
        )
    for n, g in ((2, 10), (3, 12)):
        cmds.append(
            (
                f"divisor-lambda-{n}",
                ["divisor", "lambda-n", "--n", str(n), "--g", str(g)],
                lambda d, n=n: _check_divisor_doc(d, n),
            )
        )
    for e in ("-1", "1"):
        cmds.append(
            (
                f"basin-open-rosary{e}",
                ["basin", "--family", "open-rosary", "--g", "6", "--r", "3", "--exponents", e],
                lambda d: _check_basin_doc(d, 6, 3),
            )
        )
    return [(name, argv + ["--json"], check) for name, argv, check in cmds]


def cli_argv(traced: bool) -> list[str]:
    """How a child interpreter runs one command: as a user would, or timed inside."""
    if traced:
        return [sys.executable, str(Path(__file__).resolve().parent / "cli_child.py")]
    return [sys.executable, "-m", "gitcurves.cli"]


def run_child(argv: list[str], env: dict) -> subprocess.CompletedProcess:
    return subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)


def _check_cli(proc, check) -> Optional[str]:
    if proc.returncode != 0:
        return f"exit code {proc.returncode}: {proc.stderr.strip()[-200:]}"
    return check(json.loads(proc.stdout))


def cli_ops(env: dict, traced: bool, probe: bool = False) -> list[Op]:
    ops = []
    for name, argv, check in cli_commands():
        klass = "large" if name == "paper-check" else "small" if "fixtures/" in " ".join(argv) else ""
        if probe and name not in ("paper-check", "classify-bridge-length-1"):
            continue
        ops.append(
            Op(
                id=f"cli/{name}",
                klass=klass,
                run=lambda _, argv=argv: run_child(cli_argv(traced) + argv, env),
                check=lambda proc, check=check: _check_cli(proc, check),
                root="cli." + argv[0],
                # the large class is this one command: more samples for its median
                repeats=4 if klass == "large" else 1,
            )
        )
    return ops
