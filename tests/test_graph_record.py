"""Each curve graph keeps its own `_GraphData`, built on first use, and no
query hashes a graph to find it."""

import pickle

import pytest

from corpus import attached_open_rosary
from paths import ROOT
from gitcurves import basins, graphs
from gitcurves.basins import c_closed_orbit_rep, enumerate_c_replacements, h_closed_orbit_rep
from gitcurves.engine import hilbert_index
from gitcurves.families import build_closed_rosary_config, canonical_1ps
from gitcurves.graphs import (
    NODE,
    TACNODE,
    Component,
    CurveGraph,
    Intersection,
    aut_torus_rank,
    bridge_chain_graph,
    classify,
    closed_rosary_graph,
    find_elliptic_bridges,
    find_elliptic_chains,
    find_elliptic_tails,
    find_rosaries,
    find_weak_elliptic_chains,
    open_rosaries,
)


def h_semistable_chain():
    """C1 = E1 - E2 = C2: a weak elliptic chain between two genus-2 curves."""
    return CurveGraph(
        (Component("C1", 2), Component("E1", 1), Component("E2", 1), Component("C2", 2)),
        (
            Intersection(TACNODE, (("C1", 0), ("E1", 0))),
            Intersection(NODE, (("E1", 1), ("E2", 0))),
            Intersection(TACNODE, (("E2", 1), ("C2", 0))),
        ),
    )


def fill(g):
    """Ask every question whose answer lives on the record."""
    flags = classify(g)
    chains = graphs._find_chains(g)
    return flags, chains


def test_record_is_built_once_per_graph():
    g = closed_rosary_graph(6)
    data = graphs._graph_data(g)
    assert graphs._graph_data(g) is data
    fill(g)
    assert graphs._graph_data(g) is data and g._data is data


@pytest.mark.parametrize(
    "build",
    [
        lambda: closed_rosary_graph(6),
        lambda: closed_rosary_graph(7, broken=(2,)),
        lambda: attached_open_rosary(5),
        lambda: bridge_chain_graph([1, 2, 1]),
    ],
    ids=["closed-6", "broken-7", "attached-open-5", "bridges-1-2-1"],
)
def test_equal_graphs_built_apart_have_equal_records(build):
    a, b = build(), build()
    assert a is not b and a == b
    assert fill(a) == fill(b)
    da, db = graphs._graph_data(a), graphs._graph_data(b)
    assert da is not db
    assert da.table == db.table and da.table is not db.table
    assert da.leaving == db.leaving
    assert da.flags == db.flags and da.chains == db.chains


def test_pickle_carries_no_record():
    g = attached_open_rosary(5)
    flags, chains = fill(g)
    state = g.__getstate__()
    assert "_data" not in state and set(state) == {"components", "intersections", "marks"}
    again = pickle.loads(pickle.dumps(g))
    with pytest.raises(AttributeError):
        again._data  # the record slot is empty until the first query
    assert again == g
    assert fill(again) == (flags, chains)
    assert graphs._graph_data(again) is not graphs._graph_data(g)


def test_queries_never_hash_a_graph(monkeypatch):
    def refuse(self):
        raise AssertionError("a graph was hashed")

    monkeypatch.setattr(CurveGraph, "__hash__", refuse)
    with pytest.raises(AssertionError):
        hash(closed_rosary_graph(3))
    for g in (closed_rosary_graph(6), closed_rosary_graph(5, broken=(1,)),
              attached_open_rosary(5), bridge_chain_graph([1, 1, 1])):
        classify(g)
        find_elliptic_tails(g)
        find_elliptic_bridges(g)
        find_elliptic_chains(g)
        find_weak_elliptic_chains(g)
        find_rosaries(g)
    star = c_closed_orbit_rep(bridge_chain_graph([1, 1]))
    assert classify(star).c_semistable
    assert len(enumerate_c_replacements(bridge_chain_graph([1, 1]))) > 1
    assert classify(h_closed_orbit_rep(h_semistable_chain())).h_semistable
    config = build_closed_rosary_config(6)
    assert hilbert_index(config, canonical_1ps(config), 3).count_matches_hilbert


def test_beads_walked_once_per_graph(monkeypatch):
    # `aut_torus_rank` reads the walk itself and through both closed-orbit tests
    walked = []
    walk = graphs._bead_walk

    def counted(g):
        if graphs._graph_data(g).beads is None:  # a walk, not a read of its record
            walked.append(g)
        return walk(g)

    monkeypatch.setattr(graphs, "_bead_walk", counted)
    monkeypatch.setattr(basins, "_bead_walk", counted)
    g = CurveGraph.from_json((ROOT / "fixtures" / "weak-chains-rational-bridge.json").read_text())
    h = h_closed_orbit_rep(g)
    assert aut_torus_rank(h) == 2
    assert find_rosaries(h) == open_rosaries(h) == list(graphs._bead_walk(h)[1])
    assert sum(x is h for x in walked) == 1
    assert len({id(x) for x in walked}) == len(walked)  # every graph walked once
    assert graphs._graph_data(h).beads is graphs._bead_walk(h)
