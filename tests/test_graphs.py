"""Dual-graph model: genus arithmetic, subcurve searches, classification."""

import pickle
import random

import pytest

import isomorphism_oracle
from corpus import attached_open_rosary, corpus
from gitcurves import graphs
from gitcurves.graphs import (
    NODE,
    TACNODE,
    ChainRecord,
    Component,
    CurveGraph,
    CurveGraphError,
    Intersection,
    arithmetic_genus,
    bridge_chain_graph,
    classify,
    closed_rosary_graph,
    contact_multiplicity,
    crossing_intersections,
    find_elliptic_bridges,
    find_elliptic_chains,
    find_elliptic_tails,
    find_rosaries,
    find_weak_elliptic_chains,
    has_infinite_automorphisms,
    isomorphic,
    open_rosary_graph,
    open_rosaries,
)


def smooth_curve(genus):
    return CurveGraph((Component("C", genus),))


def elliptic_chain_graph(length, g_left=2, g_right=2):
    """D1 - E1 = E2 = ... = Er - D2: genus-one links joined by tacnodes."""
    comps = [Component("D1", g_left)]
    comps += [Component(f"E{i}", 1) for i in range(1, length + 1)]
    comps += [Component("D2", g_right)]
    xs = [Intersection(NODE, (("D1", 0), ("E1", 0)))]
    xs += [
        Intersection(TACNODE, ((f"E{i}", 1), (f"E{i+1}", 0)))
        for i in range(1, length)
    ]
    xs += [Intersection(NODE, ((f"E{length}", 1), ("D2", 0)))]
    return CurveGraph(tuple(comps), tuple(xs))


class TestArithmeticGenus:
    def test_open_rosary_length_3(self):
        assert arithmetic_genus(open_rosary_graph(3)) == 2

    def test_smooth_genus_5(self):
        assert arithmetic_genus(smooth_curve(5)) == 5

    def test_open_elliptic_chain_length_4(self):
        chain = elliptic_chain_graph(4)
        # the chain alone: strip the anchors
        comps = tuple(c for c in chain.components if c.id.startswith("E"))
        xs = tuple(x for x in chain.intersections if x.kind == TACNODE)
        assert arithmetic_genus(CurveGraph(comps, xs)) == 7

    def test_closed_rosary_length_6(self):
        assert arithmetic_genus(closed_rosary_graph(6)) == 7

    def test_broken_bead_preserves_genus(self):
        for r in (3, 5, 6):
            assert arithmetic_genus(closed_rosary_graph(r, broken=[0])) == r + 1

    def test_disconnected_errors(self):
        g = CurveGraph((Component("A", 1), Component("B", 1)))
        with pytest.raises(CurveGraphError, match="disconnected"):
            arithmetic_genus(g)

    def test_cusp_counts_toward_genus(self):
        g = CurveGraph((Component("A", 0, cusps=2),))
        assert arithmetic_genus(g) == 2


class TestContact:
    def test_rosary_bead_two_tacnodes(self):
        g = attached_open_rosary(3)
        assert contact_multiplicity(g, {"L2"}) == 4

    def test_elliptic_bridge_contact(self):
        g = bridge_chain_graph([1])
        assert contact_multiplicity(g, {"E1"}) == 2

    def test_end_bead_node_plus_tacnode(self):
        g = attached_open_rosary(3)
        assert contact_multiplicity(g, {"L1"}) == 3

    def test_rejects_improper_subsets(self):
        g = bridge_chain_graph([1])
        with pytest.raises(CurveGraphError):
            contact_multiplicity(g, set())
        with pytest.raises(CurveGraphError):
            contact_multiplicity(g, {"C1", "E1", "C2"})
        with pytest.raises(CurveGraphError):
            contact_multiplicity(g, {"C1", "C2"})

    def test_unknown_component_ids(self):
        g = bridge_chain_graph([1])
        with pytest.raises(CurveGraphError, match="no component 'nope'"):
            contact_multiplicity(g, {"nope"})
        with pytest.raises(CurveGraphError, match="no component 'nope'"):
            crossing_intersections(g, frozenset({"E1", "nope"}))


class TestTailsAndBridges:
    def test_ordinary_bridge(self):
        g = bridge_chain_graph([1])
        assert find_elliptic_bridges(g) == [frozenset({"E1"})]
        assert find_elliptic_tails(g) == []

    def test_smooth_curve_has_neither(self):
        g = smooth_curve(4)
        assert find_elliptic_tails(g) == []
        assert find_elliptic_bridges(g) == []

    def test_cuspidal_tail(self):
        g = CurveGraph(
            (Component("D", 3), Component("E", 0, cusps=1)),
            (Intersection(NODE, (("D", 0), ("E", 0))),),
        )
        assert find_elliptic_tails(g) == [frozenset({"E"})]

    def test_two_link_bridge_links(self):
        g = bridge_chain_graph([1, 1])
        assert find_elliptic_bridges(g) == [frozenset({"E1"}), frozenset({"E2"})]


class TestChains:
    def test_even_open_rosary_is_chain(self):
        g = attached_open_rosary(4)
        chains = find_elliptic_chains(g)
        assert any(c.length == 2 and not c.closed for c in chains)

    def test_c_stable_curve_has_no_chains(self):
        g = bridge_chain_graph([2])  # middle genus 2: no genus-one subcurve
        assert find_elliptic_chains(g) == []
        assert find_weak_elliptic_chains(g) == []

    def test_odd_rosary_weak_chain_only(self):
        g = attached_open_rosary(3)
        chains = find_elliptic_chains(g)
        weak = find_weak_elliptic_chains(g)
        assert chains == []
        assert any(w.length == 1 for w in weak)

    def test_bridge_is_length_one_chain(self):
        g = bridge_chain_graph([1])
        chains = find_elliptic_chains(g)
        assert [c.length for c in chains] == [1]
        assert chains[0].blocks == (("E1",),)

    def test_genus_formula_on_chains(self):
        for r in (1, 2, 3):
            chain = elliptic_chain_graph(r)
            comps = tuple(c for c in chain.components if c.id.startswith("E"))
            xs = tuple(x for x in chain.intersections if x.kind == TACNODE)
            assert arithmetic_genus(CurveGraph(comps, xs)) == 2 * r - 1

    def test_closed_chain_detected(self):
        # two genus-one curves joined at a tacnode and a node: closed chain len 2
        g = CurveGraph(
            (Component("E1", 1), Component("E2", 1)),
            (
                Intersection(TACNODE, (("E1", 0), ("E2", 0))),
                Intersection(NODE, (("E1", 1), ("E2", 1))),
            ),
        )
        chains = find_elliptic_chains(g)
        assert any(c.closed and c.length == 2 for c in chains)

    def test_closed_weak_chain_from_even_closed_rosary(self):
        g = closed_rosary_graph(4)
        weak = find_weak_elliptic_chains(g)
        assert any(w.closed and w.length == 2 for w in weak)

    def test_genus_one_with_three_contacts_is_not_a_chain(self):
        g = CurveGraph(
            (Component("D", 3), Component("E", 1)),
            (
                Intersection(NODE, (("D", 0), ("E", 0))),
                Intersection(NODE, (("D", 1), ("E", 1))),
                Intersection(NODE, (("D", 2), ("E", 2))),
            ),
        )
        assert find_elliptic_chains(g) == []


class TestRosaries:
    def test_no_rational_components(self):
        assert find_rosaries(bridge_chain_graph([1])) == []

    def test_attached_rosary_found(self):
        g = attached_open_rosary(3)
        recs = find_rosaries(g)
        assert len(recs) == 1
        assert recs[0].length == 3
        assert not recs[0].closed

    def test_broken_bead_cycle(self):
        g = closed_rosary_graph(5, broken=[0])
        recs = find_rosaries(g)
        assert len(recs) == 1
        assert recs[0].closed
        assert recs[0].broken_beads == 1
        assert recs[0].length == 5

    def test_chain_of_two_rosaries(self):
        # two length-3 rosaries joined end to end at a node, anchored at genus-2 curves
        r1 = open_rosary_graph(3, prefix="A")
        r2 = open_rosary_graph(3, prefix="B")
        comps = r1.components + r2.components + (Component("D1", 2), Component("D2", 2))
        xs = r1.intersections + r2.intersections + (
            Intersection(NODE, (("D1", 0), ("A1", 0))),
            Intersection(NODE, (("A3", 1), ("B1", 0))),
            Intersection(NODE, (("B3", 1), ("D2", 0))),
        )
        g = CurveGraph(comps, xs)
        recs = find_rosaries(g)
        assert [r.length for r in recs] == [3, 3]

    def test_cycle_runs(self):
        g = closed_rosary_graph(5, broken=[0])
        runs = open_rosaries(g)
        assert [r.length for r in runs] == [6]


class TestClassify:
    @pytest.mark.parametrize("length", [30, 31])
    def test_closed_rosary_over_24_components(self, length):
        # genus length + 1: an odd genus carries a closed weak chain
        flags = classify(closed_rosary_graph(length))
        assert (flags.dm_stable, flags.pseudostable) == (False, False)
        assert (flags.c_semistable, flags.c_stable, flags.h_semistable) == (True, False, True)
        assert flags.h_stable == (length % 2 == 1)

    @pytest.mark.parametrize("length", [449, 1001])
    def test_long_odd_closed_rosary_is_h_stable(self, length):
        # even genus: no closing can close a chain, and no node starts an
        # open one, so the chain search explores nothing
        flags = classify(closed_rosary_graph(length))
        assert (flags.c_semistable, flags.h_semistable, flags.h_stable) == (True, True, True)

    def test_chain_listing_budget(self, monkeypatch):
        # a 40-bead closed rosary: the table visits 120 sets; listing its
        # closed weak chains explores 1,520 sequences, and classify, which
        # stops at the first chain, 19
        g = closed_rosary_graph(40)
        monkeypatch.setattr(graphs, "SUBCURVE_BUDGET", 1_000)
        flags = classify(g)
        assert (flags.h_semistable, flags.h_stable) == (True, False)
        with pytest.raises(
            CurveGraphError,
            match="chain search on 40 components explores more than 1000 block sequences",
        ):
            find_weak_elliptic_chains(g)

    def test_uncovered_curve_walks_no_closed_chain(self, monkeypatch):
        # the genus-2 ends of an attached open rosary lie in no block of the
        # chain block index, so no closing point starts a walk; the open walk
        # alone stays under the budget
        g = attached_open_rosary(60)
        monkeypatch.setattr(graphs, "SUBCURVE_BUDGET", 1_000)
        chains = graphs._find_chains(g)
        assert len(chains) == 59
        assert sum(r.weak for r in chains) == 58
        assert not any(r.closed for r in chains)

    @pytest.mark.parametrize("n", [20, 40])
    def test_tacnode_ladder_chains(self, monkeypatch, n):
        # genus-1 components E0..E{n-1} in a row joined by tacnodes, each with
        # a node to a genus-2 spine S: only the two end rungs meet the rest in
        # two points, and each is a weak chain of length 1.  Walking the
        # middle rungs, which meet the rest in three, explores about n^2
        # sequences.
        comps = [Component("S", 2)] + [Component(f"E{i}", 1) for i in range(n)]
        xs = [Intersection(NODE, ((f"E{i}", 0), ("S", i))) for i in range(n)]
        xs += [Intersection(TACNODE, ((f"E{i}", 2), (f"E{i+1}", 1))) for i in range(n - 1)]
        g = CurveGraph(tuple(comps), tuple(xs))
        monkeypatch.setattr(graphs, "SUBCURVE_BUDGET", 1_000)
        flags = classify(g)
        assert (flags.c_semistable, flags.c_stable) == (True, False)
        assert (flags.h_semistable, flags.h_stable) == (True, False)
        assert find_elliptic_chains(g) == []
        assert find_weak_elliptic_chains(g) == [
            ChainRecord(False, True, 1, (("E0",),), (n, 0)),
            ChainRecord(False, True, 1, ((f"E{n - 1}",),), (2 * n - 2, n - 1)),
        ]

    def test_smooth_curve_all_flags(self):
        flags = classify(smooth_curve(5))
        assert all(flags.as_dict().values())

    def test_bridge_pseudostable_not_c_stable(self):
        g = bridge_chain_graph([1])
        flags = classify(g)
        assert flags.pseudostable
        assert flags.c_semistable
        assert not flags.c_stable
        # a bridge is a length-one elliptic chain
        assert not flags.h_semistable

    def test_even_rosary_configuration_not_h_semistable(self):
        g = attached_open_rosary(4)
        flags = classify(g)
        assert flags.c_semistable
        assert not flags.h_semistable

    def test_odd_rosary_configuration_h_semistable_not_h_stable(self):
        g = attached_open_rosary(3)
        flags = classify(g)
        assert flags.c_semistable
        assert flags.h_semistable
        assert not flags.h_stable

    def test_elliptic_tail_never_pseudostable(self):
        g = CurveGraph(
            (Component("D", 3), Component("E", 1)),
            (Intersection(NODE, (("D", 0), ("E", 0))),),
        )
        flags = classify(g)
        assert not flags.pseudostable
        assert flags.dm_stable

    def test_cuspidal_curve_not_dm_stable(self):
        g = smooth_curve(3)
        cuspy = CurveGraph((Component("C", 2, cusps=1),))
        assert classify(g).dm_stable
        flags = classify(cuspy)
        assert not flags.dm_stable
        assert flags.pseudostable

    def test_genus_one_single_tacnode_not_c_semistable(self):
        g = CurveGraph(
            (Component("D", 3), Component("E", 1)),
            (Intersection(TACNODE, (("D", 0), ("E", 0))),),
        )
        flags = classify(g)
        assert not flags.c_semistable

    def test_low_genus_errors(self):
        with pytest.raises(CurveGraphError):
            classify(smooth_curve(1))

    def test_implication_lattice_on_fixtures(self):
        fixtures = [
            smooth_curve(5),
            bridge_chain_graph([1]),
            bridge_chain_graph([1, 1]),
            attached_open_rosary(2),
            attached_open_rosary(3),
            attached_open_rosary(4),
            closed_rosary_graph(6),
            closed_rosary_graph(5, broken=[0]),
        ]
        for g in fixtures:
            f = classify(g)
            assert not f.h_stable or f.h_semistable
            assert not f.h_semistable or f.c_semistable
            assert not f.c_stable or f.c_semistable
            assert not f.c_stable or f.pseudostable
            bridges = find_elliptic_bridges(g)
            tacn = any(x.kind == TACNODE for x in g.intersections)
            assert f.c_stable == (f.pseudostable and not bridges and not tacn)


class TestAutomorphisms:
    def test_closed_rosary_length_6_infinite(self):
        ok, witness = has_infinite_automorphisms(closed_rosary_graph(6))
        assert ok
        assert witness.closed

    def test_closed_rosary_length_5_finite(self):
        ok, _ = has_infinite_automorphisms(closed_rosary_graph(5))
        assert not ok

    def test_c_stable_curve_finite(self):
        ok, witness = has_infinite_automorphisms(smooth_curve(4))
        assert not ok
        assert witness is None

    def test_rosary_witness(self):
        ok, witness = has_infinite_automorphisms(attached_open_rosary(2))
        assert ok
        assert witness.length == 2

    def test_genus_guard(self):
        with pytest.raises(CurveGraphError):
            has_infinite_automorphisms(smooth_curve(3))


class TestSerialization:
    def test_round_trip(self):
        g = attached_open_rosary(3)
        again = CurveGraph.from_json(g.to_json())
        assert again == g
        assert again.to_json() == g.to_json()

    def test_document_shape(self):
        g = bridge_chain_graph([1])
        doc = g.to_dict()
        assert set(doc) == {"components", "intersections", "marks"}
        assert doc["components"][0] == {"id": "C1", "genus": 2, "cusps": 0}
        assert doc["intersections"][0]["kind"] == "node"

    def test_marks_load_only_when_empty(self):
        doc = bridge_chain_graph([1]).to_dict()
        assert doc["marks"] == []
        assert CurveGraph.from_dict(doc) == bridge_chain_graph([1])
        del doc["marks"]
        assert CurveGraph.from_dict(doc) == bridge_chain_graph([1])
        doc["marks"] = [["E1", "p"]]
        with pytest.raises(CurveGraphError, match="marked points are not supported"):
            CurveGraph.from_dict(doc)

    def test_validation(self):
        with pytest.raises(CurveGraphError):
            CurveGraph(
                (Component("A", 0),),
                (Intersection(NODE, (("A", 0), ("B", 0))),),
            )
        with pytest.raises(CurveGraphError):
            CurveGraph(
                (Component("A", 0), Component("B", 0)),
                (
                    Intersection(NODE, (("A", 0), ("B", 0))),
                    Intersection(NODE, (("A", 0), ("B", 1))),
                ),
            )


def _node(a, b):
    return Intersection(NODE, (a, b))


class TestConstructorChecks:
    """Each refusal of `CurveGraph(...)` and which fault it names."""

    AB = (Component("A", 1), Component("B", 1))

    def refusal(self, comps, xs):
        with pytest.raises(CurveGraphError) as exc:
            CurveGraph(comps, xs)
        return str(exc.value)

    def test_duplicate_ids(self):
        assert self.refusal((Component("A", 1), Component("A", 2)), ()) == "duplicate component ids"
        # before any end is read
        comps = (Component("A", 1), Component("A", 2))
        assert self.refusal(comps, (_node(("Z", 0), ("A", 0)),)) == "duplicate component ids"

    def test_unknown_component(self):
        xs = (_node(("A", 0), ("B", 0)), _node(("B", 1), ("C", 0)))
        assert self.refusal(self.AB, xs) == "intersection references unknown component 'C'"

    def test_reused_slot(self):
        xs = (_node(("A", 0), ("B", 0)), _node(("A", 1), ("B", 0)))
        assert self.refusal(self.AB, xs) == "branch slot ('B', 0) used twice"

    def test_reused_slot_within_one_intersection(self):
        assert self.refusal(self.AB, (_node(("A", 0), ("A", 0)),)) == (
            "branch slot ('A', 0) used twice"
        )

    def test_first_faulty_end_in_intersection_order(self):
        # a reused slot at the second intersection's first end comes before
        # an unknown component at its second end and at the third intersection
        xs = (
            _node(("A", 0), ("B", 0)),
            _node(("A", 0), ("C", 0)),
            _node(("D", 0), ("B", 1)),
        )
        assert self.refusal(self.AB, xs) == "branch slot ('A', 0) used twice"
        # an unknown component at the first end comes before a reused slot at the second
        xs = (_node(("A", 0), ("B", 0)), _node(("C", 0), ("B", 0)))
        assert self.refusal(self.AB, xs) == "intersection references unknown component 'C'"

    def test_unknown_component_before_reused_slot_at_one_end(self):
        # ('C', 0) is both on an unknown component and used twice
        xs = (_node(("C", 0), ("A", 0)), _node(("B", 0), ("C", 0)))
        assert self.refusal(self.AB, xs) == "intersection references unknown component 'C'"

    def test_valid_graph_keeps_its_parts(self):
        xs = (_node(("A", 0), ("B", 0)), _node(("A", 1), ("A", 2)))
        g = CurveGraph(self.AB, xs)
        assert (g.components, g.intersections) == (self.AB, xs)


class TestGraphHash:
    def test_equal_graphs_hash_equal_and_build_equal_graph_data(self):
        a = attached_open_rosary(3)
        b = CurveGraph.from_json(a.to_json())
        assert a is not b and a == b
        assert hash(a) == hash(b) == hash((a.components, a.intersections))
        da, db = graphs._graph_data(a), graphs._graph_data(b)
        assert da is not db
        assert classify(a) == classify(b)
        assert find_weak_elliptic_chains(a) == find_weak_elliptic_chains(b)
        assert (da.table, da.leaving, da.flags, da.chains) == (
            db.table, db.leaving, db.flags, db.chains
        )
        assert repr(a) == repr(b)

    def test_pickle_drops_the_stored_hash(self):
        g = bridge_chain_graph([1, 1])
        hash(g)
        again = pickle.loads(pickle.dumps(g))
        with pytest.raises(AttributeError):
            again._hash  # the stored-hash slot is empty until the first hash
        assert again == g and hash(again) == hash(g)

    def test_whole_graph_connectivity_found_once(self, monkeypatch):
        calls = []
        connected = graphs._GraphData.connected

        def counted(self, mask, drop=None):
            calls.append((mask == self.all_mask, drop))
            return connected(self, mask, drop)

        monkeypatch.setattr(graphs._GraphData, "connected", counted)
        g = closed_rosary_graph(6, broken=(1,))
        classify(g)
        assert g.is_connected() and arithmetic_genus(g) == 7
        assert calls.count((True, None)) == 1
        apart = CurveGraph((Component("A", 2), Component("B", 2)))
        assert not apart.is_connected() and not apart.is_connected()
        assert calls.count((True, None)) == 2

    def test_table_and_chain_block_index_built_once(self, monkeypatch):
        builds = []
        for name in ("table", "leaving"):

            def counted(self, name=name, build=getattr(graphs._GraphData, name).fget):
                builds.append((name, getattr(self, "_" + name) is None))
                return build(self)

            monkeypatch.setattr(graphs._GraphData, name, property(counted))
        # an odd open rosary of five beads: classify asks for both kinds of
        # chain, and the curve has weak ones
        g = attached_open_rosary(5)
        flags = classify(g)
        assert flags.h_semistable and not flags.h_stable
        assert find_weak_elliptic_chains(g) and not find_elliptic_chains(g)
        assert builds.count(("table", True)) == builds.count(("leaving", True)) == 1
        assert builds.count(("leaving", False)) == 2

    def test_chain_records_live_on_the_graph_record(self, monkeypatch):
        runs = []
        hits = graphs._chain_hits

        def counted(g, weak=None):
            runs.append(weak)
            return hits(g, weak)

        monkeypatch.setattr(graphs, "_chain_hits", counted)
        g = closed_rosary_graph(6)
        for _ in range(3):
            assert find_weak_elliptic_chains(g)
        assert len(runs) == 1
        # an equal graph that is another object walks its own chains
        assert find_weak_elliptic_chains(CurveGraph.from_json(g.to_json()))
        assert len(runs) == 2


def relabelled(g, rng):
    """`g` with its components renamed and listed in a shuffled order, its
    intersections shuffled and each one's two ends swapped at random."""
    comps = list(g.components)
    names = [f"v{k}" for k in range(len(comps))]
    rng.shuffle(names)
    new = {c.id: name for c, name in zip(comps, names)}
    rng.shuffle(comps)
    xs = []
    for x in g.intersections:
        ends = [(new[cid], slot) for cid, slot in x.ends]
        if rng.random() < 0.5:
            ends.reverse()
        xs.append(Intersection(x.kind, tuple(ends)))
    rng.shuffle(xs)
    return CurveGraph(tuple(Component(new[c.id], c.genus, c.cusps, c.label) for c in comps), tuple(xs))


def rewired(g, rng):
    """`g` with the second ends of two intersections of one kind swapped, if
    it has two: every component keeps its profile, the graph often changes."""
    xs = list(g.intersections)
    pairs = [(i, j) for i in range(len(xs)) for j in range(i) if xs[i].kind == xs[j].kind]
    if pairs:
        i, j = rng.choice(pairs)
        (a, b), (c, d) = xs[i].ends, xs[j].ends
        xs[i], xs[j] = Intersection(xs[i].kind, (a, d)), Intersection(xs[j].kind, (c, b))
    return CurveGraph(g.components, tuple(xs))


ISO_CORPUS = corpus(seed=4401, size=120)


class TestIsomorphism:
    def test_same_shape(self):
        a = closed_rosary_graph(4)
        b = closed_rosary_graph(4)
        assert isomorphic(a, b)

    def test_different_shape(self):
        assert not isomorphic(closed_rosary_graph(4), closed_rosary_graph(5))
        assert not isomorphic(
            closed_rosary_graph(4), closed_rosary_graph(4, broken=[0])
        )

    def test_empty_graphs(self):
        empty = CurveGraph((), ())
        assert isomorphic(empty, empty) and isomorphism_oracle.isomorphic(empty, empty)

    def test_relabelled_corpus_matches_oracle(self):
        rng = random.Random(4401)
        for g in ISO_CORPUS:
            for _ in range(3):
                h = relabelled(g, rng)
                assert isomorphic(g, h) and isomorphic(h, g)
                assert isomorphism_oracle.isomorphic(g, h)

    def test_corpus_pairs_match_oracle(self):
        """Every ordered pair of the corpus, a relabelled copy of its first 40
        graphs and a rewired copy of its first 40."""
        rng = random.Random(4402)
        pool = ISO_CORPUS + [relabelled(g, rng) for g in ISO_CORPUS[:40]]
        pool += [relabelled(rewired(g, rng), rng) for g in ISO_CORPUS[:40]]
        same = 0
        for a in pool:
            for b in pool:
                want = isomorphism_oracle.isomorphic(a, b)
                assert isomorphic(a, b) == want
                same += want
        assert same > len(pool) + 80  # pairs of distinct objects both ways

    @pytest.mark.parametrize("n", [20, 400])
    def test_long_closed_rosary(self, n):
        """A closed rosary against a relabelled copy: the oracle's sorted-id
        backtracking took 33 s at n = 80, where breadth-first order follows
        the cycle."""
        g = closed_rosary_graph(n)
        h = relabelled(g, random.Random(n))
        assert isomorphic(g, h)
        assert not isomorphic(g, closed_rosary_graph(n, broken=[0]))
        assert not isomorphic(h, relabelled(closed_rosary_graph(n, broken=[n // 2]), random.Random(1)))
        if n <= 20:
            assert isomorphism_oracle.isomorphic(g, h)


class TestChainAmpleness:
    def test_non_ample_block_rejected(self):
        # E1 = two rational curves with a double node; the second curve has no
        # other contact, so the twisted dualizing sheaf has degree zero there
        g = CurveGraph(
            (
                Component("D1", 2),
                Component("A", 0),
                Component("B", 0),
                Component("E2", 1),
                Component("D2", 2),
            ),
            (
                Intersection(NODE, (("D1", 0), ("A", 0))),
                Intersection(NODE, (("A", 1), ("B", 0))),
                Intersection(NODE, (("A", 2), ("B", 1))),
                Intersection(TACNODE, (("A", 3), ("E2", 0))),
                Intersection(NODE, (("E2", 1), ("D2", 0))),
            ),
        )
        chains = find_elliptic_chains(g)
        assert not any("B" in b for c in chains for b in c.blocks)
        # the genus-one link E2 still gives a weak chain through the tacnode
        weak = find_weak_elliptic_chains(g)
        assert any(c.blocks == (("E2",),) for c in weak)


class TestChainCanonicalization:
    def test_weak_chain_reported_once_tacnode_first(self):
        g = CurveGraph(
            (
                Component("C1", 2),
                Component("E1", 1),
                Component("E2", 1),
                Component("C2", 2),
            ),
            (
                Intersection(NODE, (("C1", 0), ("E1", 0))),
                Intersection(TACNODE, (("E1", 1), ("E2", 0))),
                Intersection(TACNODE, (("E2", 1), ("C2", 0))),
            ),
        )
        weak = [w for w in find_weak_elliptic_chains(g) if w.length == 2]
        assert len(weak) == 1
        rec = weak[0]
        # tacnodal end first: intersection 2 attaches the first block E2
        assert rec.blocks == (("E2",), ("E1",))
        assert rec.ends == (2, 0)

    def test_two_bead_cycle(self):
        g = closed_rosary_graph(2)
        recs = find_rosaries(g)
        assert len(recs) == 1 and recs[0].closed and recs[0].length == 2
