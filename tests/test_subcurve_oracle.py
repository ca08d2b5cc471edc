"""The shared genus-1 subcurve table against the brute-force sweeps.

The table itself, tails, bridges, bridge links, genus-1 contact multisets,
chain records and the stability flags must equal those of `subcurve_oracle`,
which rescans every component subset per predicate and per closing
intersection.  The genus-0 contact conditions, which `classify` decides per
component, are checked against the oracle's genus-0 subcurves.
"""

import itertools

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import subcurve_oracle as oracle
from corpus import attached_open_rosary, corpus
from gitcurves.graphs import (
    NODE,
    TACNODE,
    Component,
    CurveGraph,
    CurveGraphError,
    Intersection,
    _chain_hits,
    _find_chains,
    _graph_data,
    arithmetic_genus,
    bridge_chain_graph,
    bridge_links,
    classify,
    closed_rosary_graph,
    find_elliptic_bridges,
    find_elliptic_tails,
    open_rosary_graph,
)


def _links(fn, g):
    try:
        return fn(g)
    except CurveGraphError as exc:
        return str(exc)


def assert_matches_oracle(g):
    table = _graph_data(g).table
    assert list(table.items()) == [
        (mask, cross) for mask, genus, cross in oracle.subcurve_table(g) if genus == 1
    ]
    assert find_elliptic_tails(g) == oracle.elliptic_tails(g)
    assert find_elliptic_bridges(g) == oracle.elliptic_bridges(g)
    assert _links(bridge_links, g) == _links(oracle.bridge_links, g)
    tacnodes = sum(1 << i for i, x in enumerate(g.intersections) if x.kind == TACNODE)
    one = [(c.bit_count(), c.bit_count() + (c & tacnodes).bit_count()) for c in table.values()]
    _want_zero, want_one = oracle.genus_contacts(g)
    assert sorted(one) == sorted(want_one)
    assert _find_chains(g) == oracle.find_chains(g)
    assert classify(g).as_dict() == oracle.classify_flags(g)
    assert_chain_queries(g)


def assert_chain_queries(g):
    """The existence queries agree with the chain records, and a closed
    chain of L blocks closed by `ci` has arithmetic genus 2L - 1 + delta(ci)."""
    chains = _find_chains(g)
    for weak in (False, True):
        assert any(_chain_hits(g, weak)) == any(r.weak == weak for r in chains)
    pa = arithmetic_genus(g)
    for r in chains:
        if r.closed:
            assert pa == 2 * r.length - 1 + g.intersections[r.ends[0]].delta


SELF_TACNODE = CurveGraph(
    (Component("E", 1),), (Intersection(TACNODE, (("E", 0), ("E", 1))),)
)
SELF_NODE = CurveGraph(
    (Component("F", 2),), (Intersection(NODE, (("F", 0), ("F", 1))),)
)
# E1 =t= E2 =t= E3 closes back to E1 through a node: the sequence E1, E2,
# E3 joins its last block to the first, so it is no chain
TRIANGLE = CurveGraph(
    (Component("C1", 2), Component("E1", 1), Component("E2", 1), Component("E3", 1), Component("C2", 2)),
    (
        Intersection(NODE, (("C1", 0), ("E1", 0))),
        Intersection(TACNODE, (("E1", 1), ("E2", 0))),
        Intersection(TACNODE, (("E2", 1), ("E3", 0))),
        Intersection(NODE, (("E3", 1), ("E1", 2))),
        Intersection(NODE, (("E3", 2), ("C2", 0))),
    ),
)

# a rational curve with a self-node, on a genus-2 curve by one node: an
# elliptic tail whose genus comes from the self-intersection term alone
NODAL_TAIL = CurveGraph(
    (Component("C", 2), Component("R", 0)),
    (
        Intersection(NODE, (("R", 0), ("R", 1))),
        Intersection(NODE, (("C", 0), ("R", 2))),
    ),
)
# a rational curve with a self-tacnode, bridged by nodes between two
# genus-2 curves: the self-tacnode gives it genus 2, so the table step
# prunes it, where a step blind to it would list a genus-0 subcurve
TACNODAL_BRIDGE = CurveGraph(
    (Component("C1", 2), Component("R", 0), Component("C2", 2)),
    (
        Intersection(TACNODE, (("R", 0), ("R", 1))),
        Intersection(NODE, (("C1", 0), ("R", 2))),
        Intersection(NODE, (("R", 3), ("C2", 0))),
    ),
)


def _bridged(middle, xs):
    """`middle` components between genus-2 curves C1 and C2 joined by `xs`."""
    comps = (Component("C1", 2), *middle, Component("C2", 2))
    return CurveGraph(comps, tuple(Intersection(kind, ends) for kind, ends in xs))


# The genus-0 conditions at their edges, which `classify` reads per
# component: a rational curve with two points, one a tacnode (multiplicity
# 3); rational curves whose self-node or cusp gives them genus 1; and two
# rational curves of three points each whose two nodes make a genus-1 union
# with only two points
NODE_AND_TACNODE = _bridged(
    (Component("R", 0),),
    [(NODE, (("C1", 0), ("R", 0))), (TACNODE, (("R", 1), ("C2", 0)))],
)
SELF_NODE_BRIDGE = _bridged(
    (Component("R", 0),),
    [
        (NODE, (("R", 0), ("R", 1))),
        (NODE, (("C1", 0), ("R", 2))),
        (NODE, (("R", 3), ("C2", 0))),
    ],
)
CUSPIDAL_BRIDGE = _bridged(
    (Component("R", 0, cusps=1),),
    [(NODE, (("C1", 0), ("R", 0))), (NODE, (("R", 1), ("C2", 0)))],
)
TWO_NODE_CYCLE = _bridged(
    (Component("A", 0), Component("B", 0)),
    [
        (NODE, (("C1", 0), ("A", 0))),
        (NODE, (("A", 1), ("B", 0))),
        (NODE, (("A", 2), ("B", 1))),
        (NODE, (("B", 2), ("C2", 0))),
    ],
)
# E -node- R =tacnode= Q -node- E with R cuspidal: the blocks {E, Q} and
# {R} meet the rest in the same two points, so the path from the node E-R
# through {E, Q} and {R} comes back to its start point; its union is the
# whole curve, not an open chain
RETURNING_PATH = CurveGraph(
    (Component("E", 1), Component("R", 0, cusps=1), Component("Q", 0)),
    (
        Intersection(NODE, (("E", 0), ("R", 0))),
        Intersection(NODE, (("E", 1), ("Q", 0))),
        Intersection(TACNODE, (("R", 1), ("Q", 1))),
    ),
)

NAMED = {
    "closed-rosary-2": closed_rosary_graph(2),
    "closed-rosary-5": closed_rosary_graph(5),
    "broken-rosary-4": closed_rosary_graph(4, broken=[1]),
    "bridge-chain-3": bridge_chain_graph([1, 1, 1]),
    "bridge-chain-010": bridge_chain_graph([0, 1, 0]),
    "open-rosary-4": open_rosary_graph(4),
    "self-tacnode": SELF_TACNODE,
    "self-node": SELF_NODE,
    "nodal-elliptic-tail": NODAL_TAIL,
    "rational-self-tacnode-bridge": TACNODAL_BRIDGE,
    "elliptic-triangle": TRIANGLE,
    "rational-node-and-tacnode": NODE_AND_TACNODE,
    "rational-self-node-bridge": SELF_NODE_BRIDGE,
    "cuspidal-rational-bridge": CUSPIDAL_BRIDGE,
    "two-node-rational-cycle": TWO_NODE_CYCLE,
    "path-returning-to-its-start": RETURNING_PATH,
}


class TestNamedGraphs:
    @pytest.mark.parametrize("name", sorted(NAMED))
    def test_matches_oracle(self, name):
        assert_matches_oracle(NAMED[name])

    def test_closed_rosary_two_has_single_block_closed_chains(self):
        chains = _find_chains(closed_rosary_graph(2))
        assert [(r.closed, r.weak, r.length, r.ends) for r in chains] == [
            (True, True, 1, (0,)),
            (True, True, 1, (1,)),
        ]

    def test_self_tacnode_gives_one_closed_weak_chain(self):
        assert _find_chains(SELF_TACNODE) == oracle.find_chains(SELF_TACNODE)
        [rec] = _find_chains(SELF_TACNODE)
        assert (rec.closed, rec.weak, rec.blocks, rec.ends) == (True, True, (("E",),), (0,))

    @pytest.mark.parametrize(
        "g, plain, mult",
        [
            (NODE_AND_TACNODE, False, True),
            (SELF_NODE_BRIDGE, True, True),
            (CUSPIDAL_BRIDGE, True, True),
            (TWO_NODE_CYCLE, True, True),
        ],
        ids=["node-and-tacnode", "self-node", "cusp", "two-node-cycle"],
    )
    def test_genus_zero_conditions_at_the_edges(self, g, plain, mult):
        zero, _one = oracle.genus_contacts(g)
        assert all(p >= 3 for p, _ in zero) == plain
        assert all(m >= 3 for _, m in zero) == mult
        assert classify(g).as_dict() == oracle.classify_flags(g)

    def test_self_node_on_genus_two_gives_no_chain(self):
        assert arithmetic_genus(SELF_NODE) == 3
        assert _find_chains(SELF_NODE) == () == oracle.find_chains(SELF_NODE)


def _least_of_its_class(length, broken):
    """Whether `broken` is the least of its images under the rotations and
    reflections of a cycle of `length` beads; those give isomorphic rosaries."""
    return broken == min(
        tuple(sorted((sign * b + shift) % length for b in broken))
        for shift in range(length)
        for sign in (1, -1)
    )


class TestChainSearchPrunes:
    """The open search starts only at blocks that a node leaves, and a
    closing `ci` is searched only when pa - delta(ci) is odd."""

    @pytest.mark.parametrize("length", range(2, 10))
    def test_closed_rosaries(self, length):
        # every broken-bead subset against the records; one subset of each
        # rotation and reflection class, up to 11 components, against the
        # brute-force sweeps
        for count in range(length + 1):
            for broken in itertools.combinations(range(length), count):
                g = closed_rosary_graph(length, broken)
                assert_chain_queries(g)
                if length + count <= 11 and _least_of_its_class(length, broken):
                    assert _find_chains(g) == oracle.find_chains(g)
                    assert classify(g).as_dict() == oracle.classify_flags(g)

    @pytest.mark.parametrize("length", range(1, 13))
    def test_attached_open_rosaries(self, length):
        assert_matches_oracle(attached_open_rosary(length))


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_corpus_matches_oracle(seed):
    for g in corpus(seed=seed, size=40, max_components=10):
        assert_matches_oracle(g)


@pytest.mark.parametrize("seed", [0, 1])
def test_genus_zero_conditions_per_component(seed):
    """On a curve of two or more components, every connected proper genus-0
    subcurve has >= 3 crossing points exactly when every smooth rational
    component with no self-intersection has >= 3 branches; likewise with
    tacnodes counted twice on both sides.  A genus-0 subcurve is a tree of
    such components, so `classify` reads these conditions per component."""
    for g in corpus(seed, 400, 14):
        if len(g.components) < 2:
            continue
        tacnodes = _graph_data(g).tacnodes
        entries = [cross for _mask, genus, cross in oracle.subcurve_table(g) if genus == 0]
        plain = all(cross.bit_count() >= 3 for cross in entries)
        mult = all(cross.bit_count() + (cross & tacnodes).bit_count() >= 3 for cross in entries)
        branches = {c.id: [] for c in g.components if c.genus + c.cusps == 0}
        for x in g.intersections:
            a, b = x.components()
            if a == b:
                branches.pop(a, None)
            else:
                for cid in (a, b):
                    if cid in branches:
                        branches[cid].append(x.delta)
        assert plain == all(len(ds) >= 3 for ds in branches.values())
        assert mult == all(sum(ds) >= 3 for ds in branches.values())


@pytest.mark.parametrize("seed", [0, 1])
def test_chain_blocks_meet_the_rest_in_two_points(seed):
    """Every block of an elliptic chain meets the rest of the curve in
    exactly two points, the only blocks the chain block index keeps; a closed
    chain of length 1 is the whole curve and has no crossings."""
    for g in corpus(seed, 400, 14):
        data = _graph_data(g)
        rows = {mask: (genus, cross) for mask, genus, cross in oracle.subcurve_table(g)}
        for r in oracle.find_chains(g):
            if r.closed and r.length == 1:
                continue
            for block in r.blocks:
                genus, cross = rows[data.mask_of(block)]
                assert (genus, cross.bit_count()) == (1, 2)


@st.composite
def curve_graphs(draw):
    """Connected curve graphs of arithmetic genus >= 2 with <= 10 components."""
    n = draw(st.integers(1, 10))
    comps = [
        Component(f"c{i}", draw(st.sampled_from([0, 0, 1, 1, 2])), draw(st.sampled_from([0, 0, 1])))
        for i in range(n)
    ]
    slots = [0] * n

    def intersection(a, b):
        kind = draw(st.sampled_from([NODE, NODE, TACNODE]))
        ends = ((f"c{a}", slots[a]), (f"c{b}", slots[b] + (a == b)))
        slots[a] += 1
        slots[b] += 1
        return Intersection(kind, ends)

    xs = [intersection(draw(st.integers(0, i - 1)), i) for i in range(1, n)]
    for a, b in draw(
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=4)
    ):
        xs.append(intersection(a, b))
    g = CurveGraph(tuple(comps), tuple(xs))
    assume(arithmetic_genus(g) >= 2)
    return g


@settings(max_examples=80, deadline=None)
@given(curve_graphs())
def test_random_graphs_match_oracle(g):
    assert_matches_oracle(g)
