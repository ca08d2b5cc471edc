"""Property suites: implication lattice on a random corpus, genus formulas,
determinism, and algebraic invariants checked with hypothesis."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus import corpus, random_curve_graph
from gitcurves.basins import enumerate_c_replacements
from gitcurves.chow import BranchData, branch_multiplicity_bound
from gitcurves.divisors import DivisorClass
from gitcurves.engine import chow_index_sign, extrapolate_index, hilbert_index, point_index
from gitcurves.families import (
    OneParamSubgroup,
    build_broken_bead_config,
    build_closed_rosary_config,
    canonical_1ps,
)
from gitcurves.graphs import (
    NODE,
    TACNODE,
    Component,
    CurveGraph,
    Intersection,
    arithmetic_genus,
    bridge_chain_graph,
    classify,
    closed_rosary_graph,
    find_elliptic_bridges,
    find_elliptic_chains,
    find_rosaries,
    open_rosary_graph,
)

CORPUS = corpus(seed=20240, size=120)


class TestImplicationLattice:
    @pytest.mark.parametrize("idx", range(len(CORPUS)))
    def test_lattice(self, idx):
        g = CORPUS[idx]
        f = classify(g)
        assert not f.h_stable or f.h_semistable
        assert not f.h_semistable or f.c_semistable
        assert not f.c_stable or f.c_semistable
        assert not f.c_stable or f.pseudostable

    @pytest.mark.parametrize("idx", range(len(CORPUS)))
    def test_c_stable_characterization(self, idx):
        g = CORPUS[idx]
        f = classify(g)
        assert f.c_stable == (f.pseudostable and not find_elliptic_bridges(g))


class TestGenusFormulas:
    @pytest.mark.parametrize("r", range(2, 9))
    def test_open_rosary(self, r):
        assert arithmetic_genus(open_rosary_graph(r)) == r - 1

    @pytest.mark.parametrize("r", range(2, 9))
    def test_closed_rosary(self, r):
        assert arithmetic_genus(closed_rosary_graph(r)) == r + 1

    @pytest.mark.parametrize("r", range(2, 9))
    def test_broken_beads_preserve_genus(self, r):
        broken = closed_rosary_graph(r, broken=[0])
        assert arithmetic_genus(broken) == r + 1

    @pytest.mark.parametrize("r", range(1, 5))
    def test_chain_genus(self, r):
        comps = tuple(Component(f"E{i}", 1) for i in range(r))
        xs = tuple(
            Intersection(TACNODE, ((f"E{i}", 1), (f"E{i+1}", 0)))
            for i in range(r - 1)
        )
        assert arithmetic_genus(CurveGraph(comps, xs)) == 2 * r - 1


class TestDeterminism:
    def test_classification_is_order_independent(self):
        rng = random.Random(7)
        for _ in range(25):
            g = random_curve_graph(rng, max_components=8)
            perm = list(range(len(g.components)))
            rng.shuffle(perm)
            comps = tuple(g.components[i] for i in perm)
            xs = list(g.intersections)
            rng.shuffle(xs)
            h = CurveGraph(comps, tuple(xs), g.marks)
            assert classify(g) == classify(h)
            assert find_elliptic_bridges(g) == find_elliptic_bridges(h)

    def test_find_operations_sorted(self):
        g = bridge_chain_graph([1, 1, 1])
        bridges = find_elliptic_bridges(g)
        assert bridges == sorted(bridges, key=lambda s: sorted(s))
        recs = find_rosaries(closed_rosary_graph(5, broken=[0]))
        assert recs == find_rosaries(closed_rosary_graph(5, broken=[0]))


class TestReplacementCounts:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_two_to_the_n(self, n):
        rng = random.Random(100 + n)
        genera = [rng.choice([1, 1, 1]) for _ in range(n)]
        ends = (rng.choice([2, 3]), rng.choice([2, 3]))
        g = bridge_chain_graph(genera, ends)
        reps = enumerate_c_replacements(g)
        assert len(reps) == 2**n
        for rep in reps:
            assert arithmetic_genus(rep) == arithmetic_genus(g)


class TestChainSearchAgainstRosaries:
    @pytest.mark.parametrize("r", [2, 4, 6])
    def test_even_rosary_gives_chain(self, r):
        rosary = open_rosary_graph(r)
        comps = rosary.components + (Component("D1", 2), Component("D2", 2))
        xs = rosary.intersections + (
            Intersection(NODE, (("D1", 0), ("L1", 0))),
            Intersection(NODE, ((f"L{r}", 1), ("D2", 0))),
        )
        g = CurveGraph(comps, xs)
        chains = find_elliptic_chains(g)
        assert any(c.length == r // 2 for c in chains)


@settings(max_examples=60, deadline=None)
@given(
    mu2=st.fractions(min_value=-50, max_value=50),
    mu3=st.fractions(min_value=-50, max_value=50),
)
def test_extrapolation_endpoints(mu2, mu3):
    assert extrapolate_index(mu2, mu3, 2) == mu2
    assert extrapolate_index(mu2, mu3, 3) == mu3


@pytest.mark.parametrize(
    "build, r",
    [(build_closed_rosary_config, 6), (build_closed_rosary_config, 8), (build_broken_bead_config, 5)],
    ids=["closed-6", "closed-8", "broken-5"],
)
def test_chow_sign_matches_exact_second_difference(build, r):
    # the two-point rule assumes a 2-regular initial ideal, which random
    # weights need not give; on this seeded sample its sign still agrees with
    # the exact second difference mu11 - 2*mu10 + mu9
    cfg = build(r)
    rng = random.Random(21)
    for _ in range(15):
        rho = OneParamSubgroup(tuple(rng.randint(-5, 5) for _ in range(cfg.num_coordinates)))
        mu = {m: hilbert_index(cfg, rho, m).mu for m in (2, 3, 9, 10, 11)}
        second = mu[11] - 2 * mu[10] + mu[9]
        assert chow_index_sign(mu[2], mu[3]) == (second > 0) - (second < 0)


@settings(max_examples=20, deadline=None)
@given(shift=st.integers(min_value=-6, max_value=6), m=st.sampled_from([2, 3]))
def test_index_invariant_under_weight_shift(shift, m):
    cfg = build_broken_bead_config(3)
    rho = canonical_1ps(cfg)
    assert hilbert_index(cfg, rho, m).mu == hilbert_index(cfg, rho.shifted(shift), m).mu


@settings(max_examples=50, deadline=None)
@given(
    weights=st.lists(st.integers(min_value=0, max_value=9), min_size=2, max_size=6),
    data=st.data(),
)
def test_point_index_shift_and_max(weights, data):
    rho = OneParamSubgroup(tuple(weights))
    support = data.draw(
        st.lists(
            st.integers(min_value=0, max_value=len(weights) - 1),
            min_size=1,
            max_size=len(weights),
            unique=True,
        )
    )
    value = point_index(support, rho)
    avg = Fraction(sum(weights), len(weights))
    assert value == max(-weights[i] + avg for i in support)
    # enlarging the support never decreases the index
    full = point_index(range(len(weights)), rho)
    assert full >= value


@settings(max_examples=40, deadline=None)
@given(
    orders=st.lists(st.integers(min_value=0, max_value=8), min_size=2, max_size=6),
    weights=st.lists(st.integers(min_value=0, max_value=8), min_size=2, max_size=6),
    bump=st.integers(min_value=0, max_value=3),
)
def test_branch_bound_monotone(orders, weights, bump):
    n = min(len(orders), len(weights))
    orders = [0] + orders[: n - 1]
    weights = weights[:n]
    rho = OneParamSubgroup(tuple(weights))
    base = branch_multiplicity_bound(BranchData("p", tuple(orders)), rho)
    heavier = branch_multiplicity_bound(
        BranchData("p", tuple(orders)),
        OneParamSubgroup(tuple(w + bump for w in weights)),
    )
    assert heavier >= base


@settings(max_examples=40, deadline=None)
@given(
    lam1=st.fractions(min_value=-9, max_value=9),
    d1=st.fractions(min_value=-9, max_value=9),
    lam2=st.fractions(min_value=-9, max_value=9),
    d2=st.fractions(min_value=-9, max_value=9),
    c=st.fractions(min_value=-5, max_value=5),
)
def test_divisor_linearity(lam1, d1, lam2, d2, c):
    a = DivisorClass.total(7, lam1, d1)
    b = DivisorClass.total(7, lam2, d2)
    assert (c * (a + b) - (c * a + c * b)).is_zero()
    assert ((a + b) - (b + a)).is_zero()
