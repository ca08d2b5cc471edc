"""Versal weights, basin membership, closed-orbit representatives."""

import random
from fractions import Fraction

import pytest

import basins_oracle as oracle
from corpus import attached_open_rosary, corpus
from gitcurves.basins import (
    BasinError,
    VersalWeights,
    basin_membership,
    c_closed_orbit_rep,
    enumerate_c_replacements,
    h_closed_orbit_rep,
    is_c_closed_orbit,
    is_h_closed_orbit,
    product_basin_generic,
    pseudostable_reduction,
    rosary_product_weights,
    smooth_singularities,
    versal_weights,
)
from gitcurves.families import (
    ComponentMap,
    Configuration,
    OneParamSubgroup,
    Parametrization,
    ParamTerm,
    S_ZERO,
    T_ZERO,
    build_broken_bead_config,
    build_closed_rosary_config,
    build_open_rosary_config,
    canonical_1ps,
)
from gitcurves import basins, graphs
from gitcurves.graphs import (
    NODE,
    TACNODE,
    Component,
    CurveGraph,
    CurveGraphError,
    Intersection,
    arithmetic_genus,
    aut_torus_rank,
    bridge_chain_graph,
    classify,
    closed_rosary_graph,
    find_weak_elliptic_chains,
    isomorphic,
    open_rosary_graph,
)
from paths import ROOT
from test_basins_oracle import family_graphs


def cusp_versal_weights(u):
    """The cusp rule: local coordinates of weight (2u, 3u) give the versal
    parameters (a, b) of y^2 = x^3 + a x + b the weights (4u, 6u)."""
    return (4 * u, 6 * u)


def cusp_versal_weights_at(config, rho, component, point):
    """Weights on (a, b) for a cusp sitting at a chart point of a component."""
    ws, wt = basins._st_weights(config, rho)[component]
    if point == T_ZERO:
        u = wt - ws
    elif point == S_ZERO:
        u = ws - wt
    else:
        raise BasinError(f"bad chart point {point!r}")
    return VersalWeights((component, point), "cusp", cusp_versal_weights(u))


class TestVersalWeights:
    def test_open_rosary_alternation(self):
        cfg = build_open_rosary_config(7, 4)
        rho = canonical_1ps(cfg)
        vw = [versal_weights(cfg, rho, i) for i in range(len(cfg.graph.intersections))]
        assert vw[0].parameter_weights == (-1,)
        for i in range(1, 5):  # tacnodes a_1 .. a_4
            sign = (-1) ** (i - 1)
            assert vw[i].parameter_weights == (4 * sign, 3 * sign, 2 * sign)
        assert vw[5].parameter_weights == (1,)  # node a_{r+1}, r even

    def test_open_rosary_odd_end_node(self):
        cfg = build_open_rosary_config(6, 3)
        rho = canonical_1ps(cfg)
        last = len(cfg.graph.intersections) - 1
        assert versal_weights(cfg, rho, last).parameter_weights == (-1,)

    def test_broken_bead_node_and_alternation(self):
        cfg = build_broken_bead_config(5)
        rho = canonical_1ps(cfg)
        vw = [versal_weights(cfg, rho, i) for i in range(len(cfg.graph.intersections))]
        assert vw[0].parameter_weights == (-2,)
        signs = [1, -1, 1, -1, 1]
        for k, s in enumerate(signs, start=1):
            assert vw[k].parameter_weights == (4 * s, 3 * s, 2 * s)

    def test_closed_rosary_parity(self):
        cfg = build_closed_rosary_config(6)
        rho = canonical_1ps(cfg)
        for i in range(6):
            vw = versal_weights(cfg, rho, i)
            assert vw.smoothable == (i % 2 == 0)  # a_1, a_3, a_5 at indices 0, 2, 4

    def test_incompatible_tacnode_action(self):
        # conic meeting a quartic at a tacnode with mismatched branch weights
        par = Parametrization(
            5,
            (
                ComponentMap(
                    "A", (ParamTerm(0, 2, 0), ParamTerm(1, 1, 1), ParamTerm(2, 0, 2))
                ),
                ComponentMap(
                    "B", (ParamTerm(1, 3, 1), ParamTerm(2, 4, 0), ParamTerm(3, 2, 2), ParamTerm(4, 1, 3)),
                ),
            ),
        )
        graph = CurveGraph(
            (Component("A", 0), Component("B", 0)),
            (Intersection(TACNODE, (("A", 0), ("B", 0))),),
        )
        cfg = Configuration(graph, par, branch_points=((S_ZERO, T_ZERO),))
        rho = OneParamSubgroup((2, 1, 0, 2, 4))
        with pytest.raises(BasinError, match="incompatible|automorphisms"):
            versal_weights(cfg, rho, 0)

    def test_cusp_rule(self):
        assert cusp_versal_weights(Fraction(1)) == (4, 6)
        assert cusp_versal_weights(Fraction(-2)) == (-8, -12)

    def test_cuspidal_tail_fixture(self):
        # cuspidal rational E = [s^4, s^2 t^2, s t^3, t^4] and conic R = [uv, u^2, v^2]
        # meeting at a tacnode; weights (0, 2, 3, 4, 2): cusp gets (4, 6)
        par = Parametrization(
            5,
            (
                ComponentMap(
                    "E",
                    (
                        ParamTerm(0, 4, 0),
                        ParamTerm(1, 2, 2),
                        ParamTerm(2, 1, 3),
                        ParamTerm(3, 0, 4),
                    ),
                ),
                ComponentMap(
                    "R", (ParamTerm(2, 1, 1), ParamTerm(3, 2, 0), ParamTerm(4, 0, 2))
                ),
            ),
        )
        graph = CurveGraph(
            (Component("E", 0, cusps=1), Component("R", 0)),
            (Intersection(TACNODE, (("E", 0), ("R", 0))),),
        )
        cfg = Configuration(graph, par, branch_points=((S_ZERO, T_ZERO),))
        rho = OneParamSubgroup((0, 2, 3, 4, 2))
        cusp = cusp_versal_weights_at(cfg, rho, "E", T_ZERO)
        assert cusp.parameter_weights == (4, 6)
        tac = versal_weights(cfg, rho, 0)
        assert tac.parameter_weights == (-4, -3, -2)


class TestSmoothing:
    def test_smooth_node_merges(self):
        g = bridge_chain_graph([1])
        out = smooth_singularities(g, [0])
        assert arithmetic_genus(out) == arithmetic_genus(g)
        assert len(out.components) == 2

    def test_smooth_self_intersection(self):
        g = CurveGraph(
            (Component("A", 1),),
            (Intersection(NODE, (("A", 0), ("A", 1))),),
        )
        out = smooth_singularities(g, [0])
        assert out.components[0].genus == 2

    def test_smooth_nothing(self):
        g = bridge_chain_graph([1])
        assert smooth_singularities(g, []) == g

    @pytest.mark.parametrize("indices", [[-1], [2], [0, -2], [1, 7]])
    def test_index_out_of_range_raises(self, indices):
        # a negative index must not alias one from the end: smoothing E1-C2 as
        # [-1] while keeping its node would give genus 6 from a genus-5 curve
        g = bridge_chain_graph([1])
        with pytest.raises(BasinError, match="^no intersection -?[0-9]+ on a curve with 2$"):
            smooth_singularities(g, indices)

    def test_never_looks_up_a_component(self, monkeypatch):
        # every other tacnode of a 2000-bead closed rosary: 1000 merged classes
        g = closed_rosary_graph(2000)

        def refused(self, cid):
            raise AssertionError("CurveGraph.component called")

        monkeypatch.setattr(CurveGraph, "component", refused)
        out = smooth_singularities(g, range(0, 2000, 2))
        assert len(out.components) == len(out.intersections) == 1000
        assert all(c.genus == 1 for c in out.components)
        assert arithmetic_genus(out) == arithmetic_genus(g) == 2001

    @pytest.mark.parametrize("source", ["families", 0, 1, 2, 3])
    def test_matches_per_class_oracle(self, source):
        # the empty set, every intersection, and seeded subsets of each size
        inputs = family_graphs() if source == "families" else corpus(source, 400)
        rng = random.Random(f"smooth-{source}")
        compared = 0
        for g in inputs:
            n = len(g.intersections)
            subsets = [[], list(range(n))] + [rng.sample(range(n), k) for k in range(1, n)]
            for indices in subsets:
                assert smooth_singularities(g, indices) == oracle.smooth_singularities(g, indices)
                compared += 1
        assert compared > len(inputs) * 2


class TestBasinMembership:
    def test_closed_rosary_generic_member(self):
        cfg = build_closed_rosary_config(6)
        rep = basin_membership(cfg, canonical_1ps(cfg))
        gen = rep.generic
        weak = find_weak_elliptic_chains(gen)
        assert any(w.closed and w.length == 3 for w in weak)

    def test_open_rosary_even_generic(self):
        cfg = build_open_rosary_config(7, 4)
        rep = basin_membership(cfg, canonical_1ps(cfg))
        weak = find_weak_elliptic_chains(rep.generic)
        open_weak = [w for w in weak if not w.closed]
        assert any(w.length == 2 for w in open_weak)

    def test_open_rosary_odd_generic_is_elliptic_chain(self):
        from gitcurves.graphs import find_elliptic_chains

        cfg = build_open_rosary_config(6, 3)
        rep = basin_membership(cfg, canonical_1ps(cfg))
        chains = find_elliptic_chains(rep.generic)
        assert any(c.length == 2 and not c.closed for c in chains)

    def test_inverse_subgroup_reverses_pattern(self):
        cfg = build_closed_rosary_config(4)
        rho = canonical_1ps(cfg)
        fwd = basin_membership(cfg, rho)
        bwd = basin_membership(cfg, rho.inverse())
        f = {i: s for i, _k, s in fwd.classifications}
        b = {i: s for i, _k, s in bwd.classifications}
        assert all(f[i] != b[i] for i in f)

    def test_trivial_weights_freeze_everything(self):
        cfg = build_closed_rosary_config(4)
        rho = OneParamSubgroup((1,) * 12)
        rep = basin_membership(cfg, rho)
        assert all(s == "frozen" for _i, _k, s in rep.classifications)
        assert rep.generic == cfg.graph

    def test_smooths_only_the_generic_member(self, monkeypatch):
        # the 2^s partial smoothings are counted, not built
        calls = []
        smooth = basins.smooth_singularities

        def counted(g, indices):
            calls.append(tuple(indices))
            return smooth(g, indices)

        monkeypatch.setattr(basins, "smooth_singularities", counted)
        cfg = build_closed_rosary_config(6)
        basin_membership(cfg, canonical_1ps(cfg))
        assert len(calls) == 1

    def test_solves_the_torus_weights_once(self, monkeypatch):
        calls = []
        solve = basins.component_st_weights

        def counted(config, rho):
            calls.append(config.family)
            return solve(config, rho)

        monkeypatch.setattr(basins, "component_st_weights", counted)
        cfg = build_closed_rosary_config(6)
        rep = basin_membership(cfg, canonical_1ps(cfg))
        assert len(rep.classifications) == len(cfg.graph.intersections) == 6
        assert calls == ["closed-rosary"]

    @pytest.mark.parametrize("index", [-1, 6, 7])
    def test_versal_index_out_of_range_raises(self, index):
        # -1 must not alias the last intersection, nor 6 or 7 end in an IndexError
        cfg = build_closed_rosary_config(6)
        rho = canonical_1ps(cfg)
        for st in (None, basins.component_st_weights(cfg, rho)):
            with pytest.raises(BasinError, match=f"^no intersection {index} on a curve with 6$"):
                versal_weights(cfg, rho, index, st)

    def test_failed_solve_keeps_the_versal_error(self):
        cfg = build_closed_rosary_config(4)
        rho = OneParamSubgroup(tuple(range(12)))
        with pytest.raises(BasinError) as direct:
            versal_weights(cfg, rho, 0)
        with pytest.raises(BasinError) as basin:
            basin_membership(cfg, rho)
        assert str(basin.value) == str(direct.value) == (
            "weights do not act via automorphisms on 'L1'"
        )


class TestClosedOrbitPredicates:
    def test_two_rosary_curve(self):
        g = c_closed_orbit_rep(bridge_chain_graph([1]))
        assert is_c_closed_orbit(g)
        assert not is_h_closed_orbit(g)  # a length-two rosary is an elliptic chain

    def test_three_rosary_curve(self):
        ex = CurveGraph(
            (
                Component("C1", 2),
                Component("E1", 1),
                Component("C2", 2),
            ),
            (
                Intersection(NODE, (("C1", 0), ("E1", 0))),
                Intersection(TACNODE, (("E1", 1), ("C2", 0))),
            ),
        )
        star = h_closed_orbit_rep(ex)
        assert is_h_closed_orbit(star)
        assert not is_c_closed_orbit(star)

    def test_closed_rosary_parity(self):
        # odd genus: strictly h-semistable with closed orbit
        assert is_h_closed_orbit(closed_rosary_graph(6))  # genus 7
        assert is_h_closed_orbit(closed_rosary_graph(4))  # genus 5
        # even genus: h-stable (no weak chains), hence closed vacuously
        assert is_h_closed_orbit(closed_rosary_graph(5))  # genus 6
        assert classify(closed_rosary_graph(5)).h_stable
        # a broken bead of even genus is a closed elliptic chain: not even h-semistable
        assert not is_h_closed_orbit(closed_rosary_graph(5, broken=[0]))
        assert not is_c_closed_orbit(closed_rosary_graph(6))

    def test_c_stable_is_vacuously_closed(self):
        g = bridge_chain_graph([2])
        assert is_c_closed_orbit(g)
        assert is_h_closed_orbit(g)


class TestClosedOrbitReps:
    def test_ordinary_bridge(self):
        g = bridge_chain_graph([1])
        star = c_closed_orbit_rep(g)
        beads = [c for c in star.components if c.genus == 0]
        assert len(beads) == 2
        assert arithmetic_genus(star) == arithmetic_genus(g)
        assert c_closed_orbit_rep(star) == star

    def test_tacnodal_input_pseudostabilized_first(self):
        # C1 = C2: one tacnode joining two genus-2 curves (genus 5)
        g = CurveGraph(
            (Component("C1", 2), Component("C2", 2)),
            (Intersection(TACNODE, (("C1", 0), ("C2", 0))),),
        )
        star = c_closed_orbit_rep(g)
        assert is_c_closed_orbit(star)
        assert arithmetic_genus(star) == 5
        assert isomorphic(star, c_closed_orbit_rep(bridge_chain_graph([1])))

    @pytest.mark.parametrize("k", [12, 20])
    def test_long_bridge_chain_rep_accepts_itself(self, k):
        star = c_closed_orbit_rep(bridge_chain_graph([1] * k))
        # each of the k genus-one links becomes two beads joined by a tacnode
        assert len(star.components) == 2 * k + 2
        assert star.tacnode_count() == k
        flags = classify(star)
        assert flags.c_semistable and not flags.c_stable
        assert is_c_closed_orbit(star)
        assert c_closed_orbit_rep(star) == star

    def test_c_rep_lists_no_chains(self):
        # classify asks only whether a chain exists, so the c-side never
        # builds the chain records of the input or of its representative
        for g in (bridge_chain_graph([1] * 9), attached_open_rosary(100)):
            star = c_closed_orbit_rep(g)
            assert graphs._graph_data(g).chains is None
            assert graphs._graph_data(star).chains is None

    def test_classifies_each_graph_once(self, monkeypatch):
        # c_closed_orbit_rep and is_c_closed_orbit both read the input's
        # flags, and is_c_closed_orbit the representative's: two graphs get
        # flags, and the input's are read once more from its record
        built, calls = [], []
        flags_type, original = graphs.StabilityFlags, graphs.classify

        def counting_flags(*args):
            built.append(args)
            return flags_type(*args)

        def counting_classify(g):
            calls.append(g)
            return original(g)

        monkeypatch.setattr(graphs, "StabilityFlags", counting_flags)
        for module in (graphs, basins):
            monkeypatch.setattr(module, "classify", counting_classify)
        c_closed_orbit_rep(bridge_chain_graph([1, 1, 1]))
        assert (len(built), len(calls) - len(built)) == (2, 1)
        assert len(set(calls)) == 2

    def test_c_stable_input_rejected(self):
        with pytest.raises(BasinError):
            c_closed_orbit_rep(bridge_chain_graph([2]))

    def test_pseudostable_reduction(self):
        g = CurveGraph(
            (Component("C1", 2), Component("C2", 2)),
            (Intersection(TACNODE, (("C1", 0), ("C2", 0))),),
        )
        red = pseudostable_reduction(g)
        assert classify(red).pseudostable
        assert arithmetic_genus(red) == 5
        assert isomorphic(red, bridge_chain_graph([1]))

    def test_marked_two_node_rational_is_not_contracted_away(self):
        # C1 =t= P - C2: the tacnode becomes an elliptic bridge and leaves P
        # rational with two nodes, so P is contracted; a mark on P, which
        # would keep it, cannot be given at all
        g = CurveGraph(
            (Component("C1", 2), Component("P", 0), Component("C2", 2)),
            (
                Intersection(TACNODE, (("C1", 0), ("P", 0))),
                Intersection(NODE, (("P", 1), ("C2", 0))),
            ),
        )
        assert isomorphic(pseudostable_reduction(g), bridge_chain_graph([1]))
        with pytest.raises(CurveGraphError, match="marked points are not supported"):
            CurveGraph(g.components, g.intersections, (("P", "p"),))

    def test_h_rep_contracts_middle_rational(self):
        ex1 = CurveGraph(
            (
                Component("C1", 2),
                Component("E1", 1),
                Component("P", 0),
                Component("E2", 1),
                Component("C2", 2),
            ),
            (
                Intersection(NODE, (("C1", 0), ("E1", 0))),
                Intersection(TACNODE, (("E1", 1), ("P", 0))),
                Intersection(TACNODE, (("P", 1), ("E2", 0))),
                Intersection(NODE, (("E2", 1), ("C2", 0))),
            ),
        )
        star = h_closed_orbit_rep(ex1)
        assert is_h_closed_orbit(star)
        assert arithmetic_genus(star) == arithmetic_genus(ex1)
        assert h_closed_orbit_rep(star) == star
        # six beads in two rosaries, anchors untouched
        assert sum(1 for c in star.components if c.genus == 0) == 6

    def test_h_rep_impure_remainder(self):
        ex2 = CurveGraph(
            (
                Component("C1", 2),
                Component("E1", 1),
                Component("E2", 1),
                Component("C2", 2),
            ),
            (
                Intersection(TACNODE, (("C1", 0), ("E1", 0))),
                Intersection(NODE, (("E1", 1), ("E2", 0))),
                Intersection(TACNODE, (("E2", 1), ("C2", 0))),
            ),
        )
        star = h_closed_orbit_rep(ex2)
        assert is_h_closed_orbit(star)
        assert arithmetic_genus(star) == arithmetic_genus(ex2)

    def test_closed_weak_chain_to_closed_rosary(self):
        cwc = CurveGraph(
            (Component("E1", 1), Component("E2", 1)),
            (
                Intersection(TACNODE, (("E1", 0), ("E2", 0))),
                Intersection(TACNODE, (("E1", 1), ("E2", 1))),
            ),
        )
        star = h_closed_orbit_rep(cwc)
        assert isomorphic(star, closed_rosary_graph(4))

    def test_h_rep_rejects_h_stable(self):
        with pytest.raises(BasinError):
            h_closed_orbit_rep(bridge_chain_graph([2]))


class TestAutTorusRank:
    def test_three_length_two_rosaries(self):
        g = bridge_chain_graph([1])
        # chain three bridges off one spine to get three rosaries
        spine = CurveGraph(
            (
                Component("S", 3),
                Component("E1", 1),
                Component("E2", 1),
                Component("E3", 1),
                Component("T", 2),
            ),
            (
                Intersection(NODE, (("S", 0), ("E1", 0))),
                Intersection(NODE, (("E1", 1), ("T", 0))),
                Intersection(NODE, (("S", 1), ("E2", 0))),
                Intersection(NODE, (("E2", 1), ("T", 1))),
                Intersection(NODE, (("S", 2), ("E3", 0))),
                Intersection(NODE, (("E3", 1), ("T", 2))),
            ),
        )
        star = c_closed_orbit_rep(spine)
        assert aut_torus_rank(star) == 3
        assert star.tacnode_count() == 3

    def test_h_side_rank(self):
        ex = CurveGraph(
            (
                Component("C1", 2),
                Component("E1", 1),
                Component("C2", 2),
                Component("E2", 1),
                Component("C3", 2),
            ),
            (
                Intersection(NODE, (("C1", 0), ("E1", 0))),
                Intersection(TACNODE, (("E1", 1), ("C2", 0))),
                Intersection(NODE, (("C2", 1), ("E2", 0))),
                Intersection(TACNODE, (("E2", 1), ("C3", 0))),
            ),
        )
        star = h_closed_orbit_rep(ex)
        assert star.tacnode_count() == 4
        assert aut_torus_rank(star) == 2

    def test_c_stable_rank_zero(self):
        assert aut_torus_rank(bridge_chain_graph([2])) == 0

    def test_closed_rosary_rank_one(self):
        assert aut_torus_rank(closed_rosary_graph(6)) == 1

    def test_non_closed_orbit_errors(self):
        from gitcurves.graphs import CurveGraphError

        with pytest.raises(CurveGraphError):
            aut_torus_rank(bridge_chain_graph([1]))


class TestReplacements:
    def test_length_one_bridge(self):
        reps = enumerate_c_replacements(bridge_chain_graph([1]))
        assert len(reps) == 2
        kinds = sorted(tuple(sorted(x.kind for x in r.intersections)) for r in reps)
        assert kinds == [("node", "node"), ("tacnode",)]

    def test_length_two_bridge(self):
        reps = enumerate_c_replacements(bridge_chain_graph([1, 1]))
        assert len(reps) == 4
        # the all-contracted configuration is C1 = P^1 = C2
        both = [r for r in reps if len(r.components) == 3 and r.tacnode_count() == 2]
        assert len(both) == 1
        assert sorted(c.genus for c in both[0].components) == [0, 2, 2]

    def test_no_bridges(self):
        g = bridge_chain_graph([2])
        assert enumerate_c_replacements(g) == [g]

    def test_genus_preserved(self):
        g = bridge_chain_graph([1, 1, 1])
        for rep in enumerate_c_replacements(g):
            assert arithmetic_genus(rep) == arithmetic_genus(g)

    def test_rejects_non_pseudostable(self):
        g = CurveGraph(
            (Component("C1", 2), Component("C2", 2)),
            (Intersection(TACNODE, (("C1", 0), ("C2", 0))),),
        )
        with pytest.raises(BasinError):
            enumerate_c_replacements(g)

    def test_matches_product_basin_generics(self):
        # the 2^N generic replacement configurations coincide with the generic
        # basin members of the closed-orbit curve under all sign patterns
        import itertools

        g = bridge_chain_graph([1, 1])
        star = c_closed_orbit_rep(g)
        reps = enumerate_c_replacements(g)
        members = [
            product_basin_generic(star, signs)
            for signs in itertools.product((1, -1), repeat=2)
        ]
        matched = 0
        for rep in reps:
            assert any(isomorphic(rep, m) for m in members)
            matched += 1
        assert matched == 4


def _count_builds(monkeypatch) -> list[int]:
    """Count the graphs that `basins` constructs itself."""
    calls = [0]

    def counted(*args):
        calls[0] += 1
        return CurveGraph(*args)

    monkeypatch.setattr(basins, "CurveGraph", counted)
    return calls


class TestSurgeryBuilds:
    """Every output graph is constructed once, after all its link surgeries."""

    def test_one_build_per_replacement(self, monkeypatch):
        calls = _count_builds(monkeypatch)
        reps = enumerate_c_replacements(bridge_chain_graph([1] * 5))
        # 32 replacements; the identity is the input itself (111 builds when
        # each contracted link was rebuilt on its own)
        assert len(reps) == 32
        assert calls[0] == 31

    def test_one_build_per_representative(self, monkeypatch):
        calls = _count_builds(monkeypatch)
        star = c_closed_orbit_rep(bridge_chain_graph([1] * 9))
        assert star.tacnode_count() == 9
        assert calls[0] == 1  # was one per link

    def test_one_build_per_pseudostable_reduction(self, monkeypatch):
        calls = _count_builds(monkeypatch)
        model = pseudostable_reduction(open_rosary_graph(400))
        # L1 - E - E - ... - E - L400: all 398 inner beads are contracted
        assert len(model.components) == 401
        assert calls[0] == 1

    @pytest.mark.parametrize(
        "name", ["closed-rosary-6", "broken-rosary-5", "open-rosary-config-6-3"]
    )
    def test_tacnodal_c_representative_builds_twice(self, monkeypatch, name):
        # the pseudostable model, then the representative
        g = CurveGraph.from_json((ROOT / "fixtures" / f"{name}.json").read_text())
        calls = _count_builds(monkeypatch)
        c_closed_orbit_rep(g)
        assert calls[0] <= 2

    def test_one_build_per_h_representative(self, monkeypatch):
        g = CurveGraph.from_json(
            (ROOT / "fixtures" / "weak-chains-rational-bridge.json").read_text()
        )
        calls = _count_builds(monkeypatch)
        h_closed_orbit_rep(g)
        assert calls[0] == 1

    def test_beads_reuse_names_freed_by_earlier_links(self):
        # R0 - R1 - R2 - R3 with links R1, R2: the first link's beads are R4,
        # R5; replacing it frees R1, so the second link's beads are R1, R6
        # (a counter running on from the first link would give R6, R7)
        g = CurveGraph(
            tuple(Component(f"R{i}", 2 if i in (0, 3) else 1) for i in range(4)),
            tuple(
                Intersection(NODE, ((f"R{i}", 1), (f"R{i + 1}", 0))) for i in range(3)
            ),
        )
        star = c_closed_orbit_rep(g)
        assert sorted(c.id for c in star.components) == ["R0", "R1", "R3", "R4", "R5", "R6"]
        beads = {
            frozenset(x.components()) for x in star.intersections if x.kind == TACNODE
        }
        assert beads == {frozenset({"R4", "R5"}), frozenset({"R1", "R6"})}


class TestReplacementBudget:
    def test_refused_before_any_build(self, monkeypatch):
        class Built(Exception):
            pass

        def fail(*args):
            raise Built

        monkeypatch.setattr(basins, "CurveGraph", fail)
        # twelve links pass the budget and reach the first build
        with pytest.raises(Built):
            enumerate_c_replacements(bridge_chain_graph([1] * 12))
        with pytest.raises(BasinError) as err:
            enumerate_c_replacements(bridge_chain_graph([1] * 13))
        assert str(err.value) == "13 bridge links give 8192 replacements; budget 4096"


def _own_output_inputs():
    fixtures = sorted((ROOT / "fixtures").glob("*.json"))
    out = [bridge_chain_graph([1] * k) for k in range(6)]
    out += [CurveGraph.from_json(path.read_text()) for path in fixtures]
    out += [g for seed in range(3) for g in corpus(seed, 300)]
    return out


def test_replacements_share_the_input_closed_orbit():
    """Each replacement is c-semistable, keeps the genus, and degenerates onto
    the closed-orbit curve of the input."""
    checked = 0
    for g in _own_output_inputs():
        try:
            reps = enumerate_c_replacements(g)
        except (BasinError, CurveGraphError):
            continue
        if not graphs.bridge_links(g):
            assert reps == [g] and classify(g).c_stable
            continue
        star = c_closed_orbit_rep(g)
        for rep in reps:
            assert classify(rep).c_semistable
            assert arithmetic_genus(rep) == arithmetic_genus(g)
            assert isomorphic(c_closed_orbit_rep(rep), star)
            checked += 1
    assert checked == 118


class TestProductWeights:
    def test_weights_linear_in_exponents(self):
        star = c_closed_orbit_rep(bridge_chain_graph([1, 1]))
        table = rosary_product_weights(star, (1, 1))
        by_kind = {}
        for idx, kind, w in table:
            by_kind.setdefault(kind, []).append(w)
        assert sorted(by_kind["tacnode"]) == [4, 4]
        # middle node touches two rosaries: -(e_i + e_j) = -2
        assert sorted(by_kind["node"]) == [-2, -1, -1]

    def test_exponent_count_checked(self):
        star = c_closed_orbit_rep(bridge_chain_graph([1]))
        with pytest.raises(BasinError):
            rosary_product_weights(star, (1, 1))


class TestOverlappingWeakChains:
    def _attached_rosary(self, names):
        """D - L1 = L2 = L3 = L4 = L5 - D: an odd-length rosary on one anchor."""
        comps = (Component("D", 2),) + tuple(Component(n, 0) for n in names)
        xs = [Intersection(NODE, (("D", 0), (names[0], 0)))]
        for a, b in zip(names, names[1:]):
            xs.append(Intersection(TACNODE, ((a, 1), (b, 0))))
        xs.append(Intersection(NODE, ((names[-1], 1), ("D", 1))))
        return CurveGraph(comps, tuple(xs))

    def test_length_five_rosary_rep(self):
        g = self._attached_rosary(["L1", "L2", "L3", "L4", "L5"])
        flags = classify(g)
        assert flags.h_semistable and not flags.h_stable
        star = h_closed_orbit_rep(g)
        assert is_h_closed_orbit(star)
        assert arithmetic_genus(star) == arithmetic_genus(g) == 7
        # two three-bead rosaries; the leftover bead is contracted
        assert sum(1 for c in star.components if c.genus == 0) == 6

    def test_tie_break_choice_is_isomorphism_invariant(self):
        a = self._attached_rosary(["L1", "L2", "L3", "L4", "L5"])
        # reversed labels make the greedy choice pick the mirrored chain
        b = self._attached_rosary(["L5", "L4", "L3", "L2", "L1"])
        assert isomorphic(h_closed_orbit_rep(a), h_closed_orbit_rep(b))

    def test_shared_node_two_chains_one_editor_pass(self):
        # both chains attach nodally at the same intersection
        g = CurveGraph(
            (
                Component("C1", 2),
                Component("E1", 1),
                Component("E2", 1),
                Component("C2", 2),
            ),
            (
                Intersection(TACNODE, (("C1", 0), ("E1", 0))),
                Intersection(NODE, (("E1", 1), ("E2", 0))),
                Intersection(TACNODE, (("E2", 1), ("C2", 0))),
            ),
        )
        star = h_closed_orbit_rep(g)
        assert is_h_closed_orbit(star)
        assert arithmetic_genus(star) == arithmetic_genus(g)
        assert sum(1 for c in star.components if c.genus == 0) == 6

    def test_two_multi_component_chains(self):
        g = CurveGraph(
            (
                Component("C1", 2),
                Component("E1", 1),
                Component("E2", 1),
                Component("E3", 1),
                Component("E4", 1),
                Component("C2", 2),
            ),
            (
                Intersection(TACNODE, (("C1", 0), ("E1", 0))),
                Intersection(TACNODE, (("E1", 1), ("E2", 0))),
                Intersection(NODE, (("E2", 1), ("E3", 0))),
                Intersection(TACNODE, (("E3", 1), ("E4", 0))),
                Intersection(TACNODE, (("E4", 1), ("C2", 0))),
            ),
        )
        star = h_closed_orbit_rep(g)
        assert is_h_closed_orbit(star)
        assert arithmetic_genus(star) == 12
        assert sum(1 for c in star.components if c.genus == 0) == 12
        assert h_closed_orbit_rep(star) == star


class TestReplacementBasinBijection:
    """Generic replacement configurations coincide, up to isomorphism, with
    the generic basin members of the closed-orbit curve over sign patterns."""

    def _check_bijection(self, g, n):
        import itertools

        star = c_closed_orbit_rep(g)
        reps = enumerate_c_replacements(g)
        members = [
            product_basin_generic(star, signs)
            for signs in itertools.product((1, -1), repeat=n)
        ]
        assert len(reps) == len(members) == 2**n
        for rep in reps:
            assert any(isomorphic(rep, m) for m in members)
        for m in members:
            assert any(isomorphic(rep, m) for rep in reps)

    def test_chain_of_three_bridges(self):
        self._check_bijection(bridge_chain_graph([1, 1, 1], (2, 3)), 3)

    def test_star_of_three_bridges(self):
        g = CurveGraph(
            (
                Component("S", 3),
                Component("E1", 1),
                Component("E2", 1),
                Component("E3", 1),
                Component("T", 2),
            ),
            (
                Intersection(NODE, (("S", 0), ("E1", 0))),
                Intersection(NODE, (("E1", 1), ("T", 0))),
                Intersection(NODE, (("S", 1), ("E2", 0))),
                Intersection(NODE, (("E2", 1), ("T", 1))),
                Intersection(NODE, (("S", 2), ("E3", 0))),
                Intersection(NODE, (("E3", 1), ("T", 2))),
            ),
        )
        self._check_bijection(g, 3)

    def test_product_weights_linear(self):
        star = c_closed_orbit_rep(bridge_chain_graph([1, 1, 1], (2, 3)))
        table = rosary_product_weights(star, (2, -3, 5))
        tac = sorted(w for _i, k, w in table if k == "tacnode")
        nodes = sorted(w for _i, k, w in table if k == "node")
        assert tac == [-12, 8, 20]
        assert nodes == [-5, -2, -2, 1]


class TestClosedChainsOfRosaries:
    def test_cycle_of_two_three_rosaries(self):
        # six beads in a cycle with two nodal junctions: two length-3 rosaries
        g = closed_rosary_graph(4, broken=[0, 2])
        assert arithmetic_genus(g) == 5
        flags = classify(g)
        assert flags.h_semistable and not flags.h_stable
        assert is_h_closed_orbit(g)
        assert aut_torus_rank(g) == 2

    def test_unbroken_and_broken_closed_orbits_coexist(self):
        # the unbroken closed rosary of the same odd genus is a different
        # closed-orbit curve
        assert is_h_closed_orbit(closed_rosary_graph(4))
        assert not isomorphic(closed_rosary_graph(4), closed_rosary_graph(4, broken=[0, 2]))
