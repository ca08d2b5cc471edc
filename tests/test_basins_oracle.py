"""Bridge surgery built once per output graph against per-link rebuilds.

`enumerate_c_replacements` and `c_closed_orbit_rep` must give exactly the
graphs (as `to_json()`), or exactly the error text, of `basins_oracle`,
which builds an intermediate graph after every link.  Each input is also
tried with its components renamed R<i>, P<i>, E<i> and Q<i>, numbered
forward and backward: those are the stems the surgeries draw fresh names
from, so a fresh name that drifts from the per-link rebuilds shows up there.
"""

import pytest

import basins_oracle as oracle
from corpus import corpus
from gitcurves import GitcurvesError
from gitcurves.basins import c_closed_orbit_rep, enumerate_c_replacements
from gitcurves.graphs import (
    NODE,
    TACNODE,
    Component,
    CurveGraph,
    Intersection,
    bridge_chain_graph,
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
        out = fn(g)
    except GitcurvesError as exc:
        return (type(exc).__name__, str(exc))
    if isinstance(out, list):
        return [r.to_json() for r in out]
    return out.to_json()


def assert_matches_oracle(graphs):
    compared = 0
    for base in graphs:
        for g in variants(base):
            got = outcome(enumerate_c_replacements, g)
            assert got == outcome(oracle.enumerate_c_replacements, g), g.to_json()
            assert outcome(c_closed_orbit_rep, g) == outcome(oracle.c_closed_orbit_rep, g), (
                g.to_json()
            )
            compared += 1 if isinstance(got, tuple) else len(got)
    return compared


def test_families_and_fixtures_match_oracle():
    # bridge chains alone give 9 * (2 + 4 + ... + 512) = 9198 replacements
    assert assert_matches_oracle(family_graphs()) > 9198


@pytest.mark.parametrize("seed", range(4))
def test_corpus_matches_oracle(seed):
    assert_matches_oracle(corpus(seed, 400))

