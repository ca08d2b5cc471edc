"""Basins surgery and the bead walk against their per-step oracles.

`enumerate_c_replacements`, both closed-orbit representatives and
`pseudostable_reduction` must give exactly the graphs (equal components and
intersections, so equal `to_json()`), or exactly the error text, of
`basins_oracle`, which scans every intersection again after every link or
contraction; the rosary queries and closed-orbit predicates must give exactly the records
and answers of its separate walks.  Each input is also tried with its components renamed R<i>, P<i>,
E<i> and Q<i>, numbered forward and backward: those are the stems the
surgeries draw fresh names from, so a fresh name that drifts from the
per-link rebuilds shows up there.
"""

import itertools

import pytest

import basins_oracle as oracle
from corpus import corpus
from gitcurves import GitcurvesError
from gitcurves import basins, graphs
from gitcurves.graphs import (
    NODE,
    TACNODE,
    Component,
    CurveGraph,
    Intersection,
    bridge_chain_graph,
    closed_rosary_graph,
    open_rosary_graph,
)
from paths import ROOT

FIXTURES = sorted((ROOT / "fixtures").glob("*.json"))


def weak_chain(k):
    """W_k: genus-2 end, tacnode, k genus-1 links joined by tacnodes, node, genus-2 end."""
    names = ["C1"] + [f"E{i}" for i in range(1, k + 1)] + ["C2"]
    comps = [Component(n, 2 if n[0] == "C" else 1) for n in names]
    xs = [
        Intersection(TACNODE if i < k else NODE, ((names[i], 1), (names[i + 1], 0)))
        for i in range(k + 1)
    ]
    return CurveGraph(tuple(comps), tuple(xs))


def ring(k):
    """k genus-1 components in a cycle of nodes: every node joins two bridge links."""
    names = [f"E{i}" for i in range(1, k + 1)]
    return CurveGraph(
        tuple(Component(n, 1) for n in names),
        tuple(
            Intersection(NODE, ((names[i], 1), (names[(i + 1) % k], 0))) for i in range(k)
        ),
    )


def family_graphs():
    out = [bridge_chain_graph([1] * k) for k in range(1, 10)]
    out += [weak_chain(k) for k in range(1, 7)]
    out += [ring(k) for k in range(2, 8)]
    out.append(bridge_chain_graph([1, 2, 1, 1, 3]))
    out.append(bridge_chain_graph([1] * 3, (2, 1)))
    out += [CurveGraph.from_json(path.read_text()) for path in FIXTURES]
    out += [open_rosary_graph(n) for n in range(1, 61)]
    out += [closed_rosary_graph(n) for n in range(2, 10)]
    for n in range(2, 8):
        broken = {(0,), tuple(range(n)), tuple(range(0, n, 2)), tuple(range(1, n, 2))}
        out += [closed_rosary_graph(n, b) for b in sorted(broken)]
    return out


def renamed(g, stem, reverse):
    """`g` with its i-th component renamed <stem><i> (or <stem><n-1-i>)."""
    n = len(g.components)
    new = {
        c.id: f"{stem}{n - 1 - i if reverse else i}" for i, c in enumerate(g.components)
    }
    return CurveGraph(
        tuple(Component(new[c.id], c.genus, c.cusps, c.label) for c in g.components),
        tuple(
            Intersection(x.kind, tuple((new[cid], slot) for cid, slot in x.ends))
            for x in g.intersections
        ),
    )


def variants(g):
    yield g
    for stem in "RPEQ":
        for reverse in (False, True):
            yield renamed(g, stem, reverse)


def outcome(fn, g):
    try:
        return fn(g)
    except GitcurvesError as exc:
        return (type(exc).__name__, str(exc))


#: (new, oracle) pairs compared on every input besides the replacements
PAIRS = [
    (getattr(mod, name), getattr(oracle, name))
    for mod, names in (
        (
            basins,
            "c_closed_orbit_rep h_closed_orbit_rep pseudostable_reduction"
            " is_c_closed_orbit is_h_closed_orbit",
        ),
        (graphs, "find_rosaries open_rosaries has_infinite_automorphisms aut_torus_rank"),
    )
    for name in names.split()
]


def assert_matches_oracle(inputs):
    compared = 0
    for base in inputs:
        for g in variants(base):
            got = outcome(basins.enumerate_c_replacements, g)
            assert got == outcome(oracle.enumerate_c_replacements, g), g.to_json()
            for fn, ref in PAIRS:
                assert outcome(fn, g) == outcome(ref, g), (fn.__name__, g.to_json())
            compared += 1 if isinstance(got, tuple) else len(got)
    return compared


def test_families_and_fixtures_match_oracle():
    # bridge chains alone give 9 * (2 + 4 + ... + 512) = 9198 replacements
    assert assert_matches_oracle(family_graphs()) > 9198


@pytest.mark.parametrize("seed", range(4))
def test_corpus_matches_oracle(seed):
    assert_matches_oracle(corpus(seed, 400))


def disconnected_unions():
    """Pairs of curves side by side: bead cycles that are not the whole curve,
    and a rational curve whose two branches meet in one node."""
    parts = [closed_rosary_graph(n, broken) for n, broken in ((2, ()), (3, (1,)), (5, (0, 2)))]
    parts += [open_rosary_graph(3), weak_chain(2)]
    parts.append(CurveGraph((Component("n", 0),), (Intersection(NODE, (("n", 0), ("n", 1))),)))
    out = []
    for a, b in itertools.combinations(parts, 2):
        a, b = renamed(a, "x", False), renamed(b, "y", True)
        out.append(CurveGraph(a.components + b.components, a.intersections + b.intersections))
    return out


def test_rosaries_of_disconnected_curves_match_oracle():
    unions = disconnected_unions()
    assert sum(len(graphs.open_rosaries(g)) for g in unions) > 0
    assert_matches_oracle(unions)
