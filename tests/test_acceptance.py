"""Acceptance gate: the ten exact criteria, one pass/fail line each.

Run as `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
All comparisons are exact rational equalities unless a runtime bound is the
stated tolerance.
"""

import random
import subprocess
import sys
import time
from fractions import Fraction

from corpus import corpus
from gitcurves.basins import (
    basin_membership,
    c_closed_orbit_rep,
    enumerate_c_replacements,
    h_closed_orbit_rep,
    is_c_closed_orbit,
    is_h_closed_orbit,
    versal_weights,
)
from gitcurves.chow import GENUS_ONE_TACNODE_TAIL, certify_unstable
from gitcurves.divisors import (
    DivisorClass,
    epsilon_of_m,
    lambda_n,
    moriwaki_decomposition,
    viehweg_class,
)
from gitcurves.engine import (
    chow_index_sign,
    evaluate_slice,
    extrapolate_index,
    hilbert_index,
)
from gitcurves.families import (
    build_broken_bead_config,
    build_closed_rosary_config,
    build_open_rosary_config,
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
    open_rosary_graph,
)
from gitcurves.monomials import MonomialOrder
from paths import ROOT, src_env
from test_engine import broken_bead_initial_degree2


def report(number, name):
    """Print the acceptance line when the criterion body succeeds."""

    class _Reporter:
        def __enter__(self):
            return self

        def __exit__(self, exc_type, exc, tb):
            status = "PASS" if exc_type is None else "FAIL"
            print(f"acceptance criterion {number} ({name}): {status}")
            return False

    return _Reporter()


def test_criterion_1_open_rosary_indices():
    with report(1, "open-rosary indices"):
        t0 = time.monotonic()
        for g, r in ((5, 2), (6, 2), (6, 3), (7, 4), (8, 5)):
            cfg = build_open_rosary_config(g, r)
            rho = canonical_1ps(cfg)
            r2 = hilbert_index(cfg, rho, 2)
            r3 = hilbert_index(cfg, rho, 3)
            if r % 2 == 0:
                assert (r2.weight_sum, r2.average) == (28 * g - 28, 28 * g - 28)
                assert (r3.weight_sum, r3.average) == (66 * g - 66, 66 * g - 66)
                assert (r2.mu, r3.mu) == (0, 0)
            else:
                assert (r2.weight_sum, r2.average) == (28 * g - 41, 28 * g - 42)
                assert (r3.weight_sum, r3.average) == (66 * g - 97, 66 * g - 99)
                assert (r2.mu, r3.mu) == (-1, -2)
        assert time.monotonic() - t0 < 10.0


def test_criterion_2_closed_rosary():
    with report(2, "closed rosary"):
        for r in (4, 6, 8):
            t0 = time.monotonic()
            cfg = build_closed_rosary_config(r)
            rho = canonical_1ps(cfg)
            r2 = hilbert_index(cfg, rho, 2)
            r3 = hilbert_index(cfg, rho, 3)
            assert r2.mu == 0 and r3.mu == 0
            assert r2.standard_count == 7 * r
            assert r3.standard_count == 11 * r
            sl = evaluate_slice(cfg, 2, MonomialOrder(rho))
            assert len(sl.initial_monomials()) == (9 * r * r - 11 * r) // 2
            if r == 8:
                assert time.monotonic() - t0 < 30.0


def test_criterion_3_broken_bead():
    with report(3, "broken bead"):
        for r in (3, 5, 7):
            cfg = build_broken_bead_config(r)
            rho = canonical_1ps(cfg)
            r2 = hilbert_index(cfg, rho, 2)
            r3 = hilbert_index(cfg, rho, 3)
            assert (r2.weight_sum, r2.average, r2.mu) == (28 * r - 13, 28 * r - 14, -1)
            assert (r3.weight_sum, r3.average, r3.mu) == (66 * r - 31, 66 * r - 33, -2)
            for m in range(2, 7):
                assert extrapolate_index(r2.mu, r3.mu, m) == 1 - m
            assert chow_index_sign(r2.mu, r3.mu) == 0
        cfg = build_broken_bead_config(3)
        sl = evaluate_slice(cfg, 2, MonomialOrder(canonical_1ps(cfg)))
        assert set(sl.initial_monomials()) == broken_bead_initial_degree2(3)


FULLY_PARAMETRIZED = [
    ("closed-rosary", 4),
    ("closed-rosary", 6),
    ("closed-rosary", 8),
    ("broken-bead", 3),
    ("broken-bead", 5),
    ("broken-bead", 7),
]


def test_criterion_4_interpolation_identity():
    with report(4, "interpolation identity"):
        for family, r in FULLY_PARAMETRIZED:
            cfg = (
                build_closed_rosary_config(r)
                if family == "closed-rosary"
                else build_broken_bead_config(r)
            )
            rho = canonical_1ps(cfg)
            mu2 = hilbert_index(cfg, rho, 2).mu
            mu3 = hilbert_index(cfg, rho, 3).mu
            mu4 = hilbert_index(cfg, rho, 4).mu
            assert mu4 == extrapolate_index(mu2, mu3, 4)


def test_criterion_5_chow_certificates():
    with report(5, "Chow instability certificates"):
        c = certify_unstable("non-ordinary-cusp")
        assert (c.lower_bound, c.threshold) == (25, 24) and c.unstable
        c = certify_unstable("higher-tacnode")
        assert (c.lower_bound, c.threshold) == (18, 16) and c.unstable
        c = certify_unstable("multiple-component")
        assert (c.lower_bound, c.threshold) == (18, 16) and c.unstable
        for g in range(4, 21):
            c = certify_unstable(GENUS_ONE_TACNODE_TAIL, g)
            assert c.lower_bound == 36 + 16 * g - 40
            assert c.threshold == Fraction(16 * g) - Fraction(40, 3)
            assert c.lower_bound > c.threshold


def _paper_fixtures():
    return [
        bridge_chain_graph([1]),
        bridge_chain_graph([1, 1]),
        build_open_rosary_config(5, 2).graph,
        build_open_rosary_config(6, 3).graph,
        build_closed_rosary_config(6).graph,
        build_broken_bead_config(5).graph,
        closed_rosary_graph(5, broken=[0]),
        CurveGraph((Component("C", 5),)),
    ]


def test_criterion_6_classification_properties():
    with report(6, "classification property suite"):
        graphs = corpus(seed=20240, size=500) + _paper_fixtures()
        assert len(graphs) >= 500
        for g in graphs:
            f = classify(g)
            assert not f.h_stable or f.h_semistable
            assert not f.h_semistable or f.c_semistable
            assert not f.c_stable or f.c_semistable
            assert not f.c_stable or f.pseudostable
            assert f.c_stable == (f.pseudostable and not find_elliptic_bridges(g))
        for r in range(2, 9):
            assert arithmetic_genus(open_rosary_graph(r)) == r - 1
            assert arithmetic_genus(closed_rosary_graph(r)) == r + 1
        for r in range(1, 5):
            comps = tuple(Component(f"E{i}", 1) for i in range(r))
            xs = tuple(
                Intersection(TACNODE, ((f"E{i}", 1), (f"E{i+1}", 0)))
                for i in range(r - 1)
            )
            assert arithmetic_genus(CurveGraph(comps, xs)) == 2 * r - 1


def test_criterion_7_closed_orbit_and_replacements():
    with report(7, "closed orbits and replacements"):
        # worked examples around rational bridges between weak chains
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
        for g in (ex1, ex2):
            star = h_closed_orbit_rep(g)
            assert is_h_closed_orbit(star)
            assert h_closed_orbit_rep(star) == star
            assert arithmetic_genus(star) == arithmetic_genus(g)
        for g in (bridge_chain_graph([1]), bridge_chain_graph([1, 1])):
            star = c_closed_orbit_rep(g)
            assert is_c_closed_orbit(star)
            assert c_closed_orbit_rep(star) == star
            assert arithmetic_genus(star) == arithmetic_genus(g)
        assert len(enumerate_c_replacements(bridge_chain_graph([1]))) == 2
        assert len(enumerate_c_replacements(bridge_chain_graph([1, 1]))) == 4
        rng = random.Random(77)
        for n in range(1, 6):
            ends = (rng.choice([2, 3]), rng.choice([2, 3]))
            g = bridge_chain_graph([1] * n, ends)
            assert len(enumerate_c_replacements(g)) == 2**n


def test_criterion_8_basin_alternation():
    with report(8, "basin alternation"):
        # weights on (c0, c1, c2), the coefficients of 1, x, x^2
        cfg = build_open_rosary_config(7, 4)
        rho = canonical_1ps(cfg)
        assert versal_weights(cfg, rho, 0).parameter_weights == (-1,)
        for i in range(1, 5):
            sign = (-1) ** (i - 1)
            assert versal_weights(cfg, rho, i).parameter_weights == (
                4 * sign,
                3 * sign,
                2 * sign,
            )
        cfg = build_broken_bead_config(5)
        rho = canonical_1ps(cfg)
        assert versal_weights(cfg, rho, 0).parameter_weights == (-2,)
        for k in range(1, 6):
            sign = (-1) ** (k - 1)
            assert versal_weights(cfg, rho, k).parameter_weights == (
                4 * sign,
                3 * sign,
                2 * sign,
            )
        cfg = build_closed_rosary_config(6)
        rep = basin_membership(cfg, canonical_1ps(cfg))
        statuses = [s for _i, _k, s in rep.classifications]
        assert statuses == ["smoothable", "frozen"] * 3


def test_criterion_9_divisor_identities():
    with report(9, "divisor identities"):
        for g in range(3, 21):
            d2 = lambda_n(2, g)
            assert (d2 - DivisorClass.total(g, 13, -1)).is_zero()
            for m in range(2, 51):
                v = viehweg_class(2, m, g)
                want = ((m - 1) * (g - 1)) * DivisorClass.total(g, 20 * m - 3, -2 * m)
                assert (v - want).is_zero()
        for m in range(1, 101):
            assert epsilon_of_m(m) == Fraction(39, 200 * m - 30)
        for g in range(4, 31):
            cs = moriwaki_decomposition(g)  # raises if the identity fails
            if g >= 5:
                assert all(c > 0 for c in cs)


def test_criterion_10_manifest_determinism():
    with report(10, "paper-check determinism"):
        cmd = [sys.executable, "-m", "gitcurves.cli", "paper-check", "--json"]
        run1 = subprocess.run(cmd, capture_output=True, cwd=ROOT, env=src_env())
        run2 = subprocess.run(cmd, capture_output=True, cwd=ROOT, env=src_env())
        assert run1.returncode == 0 and run2.returncode == 0
        assert run1.stdout == run2.stdout
        assert run1.stdout  # nonempty manifest
