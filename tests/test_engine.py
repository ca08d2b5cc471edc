"""Ideal slices, standard monomials and Hilbert-Mumford indices.

Expected values are frozen from hand computations on the rosary families:
spot values were recomputed independently from the closed formulas
(standard-monomial counts 7r and 11r, weight sums 28r etc.) before being
asserted here.
"""

import random
from fractions import Fraction

import pytest

from gitcurves import GitcurvesError, engine, graphs
from gitcurves.engine import (
    EngineError,
    check_family_budget,
    check_slice_budget,
    chow_index_sign,
    evaluate_slice,
    extrapolate_index,
    hilbert_index,
    hilbert_polynomial,
    index_suite,
    point_index,
)
from gitcurves.families import (
    FAMILIES,
    ComponentMap,
    Configuration,
    FamilyError,
    OneParamSubgroup,
    ParamTerm,
    Parametrization,
    build_broken_bead_config,
    build_closed_rosary_config,
    build_open_rosary_config,
    canonical_1ps,
)
from gitcurves.monomials import MonomialOrder, monomial_count, pair_monomial
from slice_oracle import (
    candidates,
    full_slice,
    holders,
    sparse_monomials,
    substitution_matrix,
    supported_keys,
    supported_monomials,
)


def refusal(check, *args) -> str:
    with pytest.raises(GitcurvesError) as exc:
        check(*args)
    return f"{type(exc.value).__name__}: {exc.value}"


def term_fields(t):
    return {"coord": t.coord, "s_exp": t.s_exp, "t_exp": t.t_exp, "coeff": t.coeff}


def with_parametrization(c, par):
    """`c` with its parametrization replaced; every other field kept."""
    return Configuration(c.graph, par, c.split, c.branch_points, c.family, c.params)


def closed_rosary_initial_degree2(r):
    """Hand-expanded degree-two leading monomials of the closed rosary.

    Hand tabulations easily overlook x0*x4, the leading term of
    x0*x4 - x2*x3 (a weight tie broken by the lex precedence); with it the
    cardinality is (9r^2-11r)/2 and the standard weight sum comes out at 28r.
    """
    n = 3 * r
    pm = lambda i, j: pair_monomial(n, i, j)
    s = {pm(0, 0), pm(0, 4)}
    for j in range(5, n):
        s.add(pm(0, j))
    for j in range(5, n - 3):
        s.add(pm(1, j))
    s.add(pm(1, n - 2))
    for i in range(2, n - 5):
        for j in range(i + 5, n):
            s.add(pm(i, j))
    for j in range(1, r):
        s |= {
            pm(3 * j - 3, 3 * j - 1),
            pm(3 * j - 3, 3 * j),
            pm(3 * j - 2, 3 * j + 1),
            pm(3 * j - 2, 3 * j + 2),
            pm(3 * j - 1, 3 * j + 1),
            pm(3 * j - 1, 3 * j + 2),
        }
    for j in range(1, r - 1):
        s |= {pm(3 * j - 1, 3 * j + 3), pm(3 * j, 3 * j + 4)}
    return s


def broken_bead_initial_degree2(r):
    """Hand-expanded degree-two leading monomials of the broken-bead rosary."""
    n = 3 * r
    pm = lambda i, j: pair_monomial(n, i, j)
    s = {pm(0, 0)}
    for j in range(3, n):
        s.add(pm(0, j))
    for j in range(3, n - 3):
        s.add(pm(1, j))
    s.add(pm(1, n - 2))
    for j in range(4, n):
        s.add(pm(2, j))
    for j in range(1, r - 1):
        for k in range(3 * j + 2, n):
            s.add(pm(3 * j, k))
        for k in range(3 * j + 4, n):
            s.add(pm(3 * j + 1, k))
            s.add(pm(3 * j + 2, k))
    return s


class TestSlices:
    @pytest.mark.parametrize("r", [4, 6])
    def test_closed_rosary_counts(self, r):
        c = build_closed_rosary_config(r)
        order = MonomialOrder(canonical_1ps(c))
        s2 = evaluate_slice(c, 2, order)
        s3 = evaluate_slice(c, 3, order)
        assert s2.standard_count == 7 * r
        assert s3.standard_count == 11 * r
        assert len(s2.initial_monomials()) == (9 * r * r - 11 * r) // 2

    @pytest.mark.parametrize("r", [4, 6])
    def test_closed_rosary_initial_set(self, r):
        c = build_closed_rosary_config(r)
        s2 = evaluate_slice(c, 2, MonomialOrder(canonical_1ps(c)))
        assert set(s2.initial_monomials()) == closed_rosary_initial_degree2(r)

    @pytest.mark.parametrize("r", [3, 5])
    def test_broken_bead_initial_set(self, r):
        c = build_broken_bead_config(r)
        s2 = evaluate_slice(c, 2, MonomialOrder(canonical_1ps(c)))
        assert set(s2.initial_monomials()) == broken_bead_initial_degree2(r)

    def test_degree_one_no_relations(self):
        c = build_closed_rosary_config(4)
        s1 = evaluate_slice(c, 1, MonomialOrder(canonical_1ps(c)))
        assert s1.standard_count == 12 == 3 * c.genus - 3
        assert s1.initial_monomials() == []

    def test_partition_of_monomials(self):
        c = build_broken_bead_config(3)
        s2 = evaluate_slice(c, 2, MonomialOrder(canonical_1ps(c)))
        n = c.num_coordinates
        assert len(s2.monomials) == monomial_count(n, 2)
        assert s2.standard_count + len(s2.initial_monomials()) == len(s2.monomials)

    def test_over_budget_slice_raises_before_enumeration(self, monkeypatch):
        def enumerate_nothing(par, m, order, holders):
            raise AssertionError("over-budget slice was enumerated")

        monkeypatch.setattr(engine, "_candidates", enumerate_nothing)
        c = build_closed_rosary_config(3334)
        with pytest.raises(EngineError) as exc:
            evaluate_slice(c, 2, MonomialOrder(canonical_1ps(c)))
        assert str(exc.value) == (
            "degree-2 slice has up to 50010 supported monomials; budget 50000"
        )

    def test_over_budget_index_builds_no_graph_record(self, monkeypatch):
        # the genus builds the graph's bitmask record, n^2 words on a long rosary
        built = []
        record = graphs._GraphData
        monkeypatch.setattr(graphs, "_GraphData", lambda g: built.append(g) or record(g))
        c = build_closed_rosary_config(3334)
        with pytest.raises(EngineError, match="^degree-2 slice has up to 50010 supported"):
            hilbert_index(c, canonical_1ps(c), 2)
        assert built == []
        c = build_closed_rosary_config(4)
        assert hilbert_index(c, canonical_1ps(c), 2).count_matches_hilbert
        assert len(built) == 1

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_family_bound_equals_built_bound(self, monkeypatch, family):
        # with no budget both checks refuse every slice, each naming its bound
        monkeypatch.setattr(engine, "SLICE_BUDGET", 0)
        build = FAMILIES[family][0]
        for r in range(3, 13):
            for values in [(r + 2, r), (r + 7, r)] if family == "open-rosary" else [(r,)]:
                if family == "broken-bead" and r % 2 == 0:  # no such family: its error first
                    assert refusal(check_family_budget, family, values, 2) == refusal(build, r)
                    continue
                par = build(*values).parametrization
                for m in range(2, 6):
                    assert refusal(check_family_budget, family, values, m) == refusal(
                        check_slice_budget, par, m
                    )

    def test_budget_bounds_slice_size_not_degree(self):
        # four beads of five coordinates: 4 * C(24, 20) = 42504 at m = 20,
        # 4 * C(25, 21) = 50600 at m = 21
        c = build_closed_rosary_config(4)
        order = MonomialOrder(canonical_1ps(c))
        s20 = evaluate_slice(c, 20, order)
        assert len(supported_keys(s20)) <= engine.SLICE_BUDGET
        assert s20.standard_count == hilbert_polynomial(c.genus, 20)
        with pytest.raises(EngineError, match="degree-21 slice has up to 50600"):
            evaluate_slice(c, 21, order)

    @pytest.mark.parametrize("r,m", [(334, 2), (40, 5)])
    def test_long_rosaries_within_budget(self, r, m):
        # the smallest closed rosaries a budget of 5,000 refused at m = 2 and 5
        c = build_closed_rosary_config(r)
        rep = hilbert_index(c, canonical_1ps(c), m)
        assert rep.mu == 0 and rep.count_matches_hilbert

    @pytest.mark.parametrize(
        "comp,coord,changes,message",
        [
            # x0 = 2 s^3 t on L1: the column of x0*x1 has the entry 2
            ("L1", 0, {"coeff": Fraction(2)}, "coordinate x0 has coefficient 2"),
            # x5 of L2 becomes x0, which L1 and L3 hold: x0^2 has three entries
            ("L2", 5, {"coord": 0}, "coordinate x0 lies on 3 components"),
        ],
        ids=["coefficient", "three-components"],
    )
    def test_column_outside_kernel_shape_raises(self, comp, coord, changes, message):
        c = build_closed_rosary_config(3)
        maps = tuple(
            ComponentMap(
                cm.component,
                tuple(
                    ParamTerm(**{**term_fields(t), **changes})
                    if (cm.component, t.coord) == (comp, coord)
                    else t
                    for t in cm.terms
                ),
            )
            for cm in c.parametrization.maps
        )
        c = with_parametrization(c, Parametrization(c.num_coordinates, maps))
        with pytest.raises(EngineError, match=message):
            evaluate_slice(c, 2)

    def test_listing_budget_bounds_all_monomials(self):
        # the slice fits SLICE_BUDGET, but listing every degree-8 monomial in
        # 30 coordinates would hold C(37, 8) = 38,608,020 tuples
        c = build_closed_rosary_config(10)
        s8 = evaluate_slice(c, 8, MonomialOrder(canonical_1ps(c)))
        assert s8.standard_count == 8 * 40 + 1 - 11
        with pytest.raises(EngineError) as exc:
            s8.initial_monomials()
        assert str(exc.value) == "degree-8 listing has 38608020 monomials; budget 300000"
        with pytest.raises(EngineError):
            s8.standard
        # closed r = 8 at m = 5, the largest listing in use, fits
        c = build_closed_rosary_config(8)
        s5 = evaluate_slice(c, 5, MonomialOrder(canonical_1ps(c)))
        assert len(s5.monomials) == monomial_count(24, 5) == 98280 <= engine.LISTING_BUDGET

    def test_certificates_are_ideal_members(self):
        c = build_broken_bead_config(3)
        order = MonomialOrder(canonical_1ps(c))
        monos, standard, basis = full_slice(c, 2, order)
        assert len(basis) == standard.count(False)
        stds = {i for i, flag in enumerate(standard) if flag}
        par = c.parametrization
        for lead, tail in basis:
            assert not standard[lead]
            assert all(k in stds and k < lead for k, _ in tail)
            # evaluate the certificate polynomial on every component: must vanish
            for cm in par.maps:
                table = {t.coord: (t.s_exp, t.t_exp) for t in cm.terms}
                acc = {}
                for idx, coeff in [(lead, Fraction(1))] + [(k, -v) for k, v in tail]:
                    mono = monos[idx]
                    if any(e and i not in table for i, e in enumerate(mono)):
                        continue
                    se = sum(table[i][0] * e for i, e in enumerate(mono) if e)
                    te = sum(table[i][1] * e for i, e in enumerate(mono) if e)
                    acc[(se, te)] = acc.get((se, te), Fraction(0)) + coeff
                assert all(v == 0 for v in acc.values())


class TestIndices:
    @pytest.mark.parametrize(
        "g,r", [(5, 2), (6, 2), (6, 3), (7, 4), (8, 5)]
    )
    def test_open_rosary(self, g, r):
        cfg = build_open_rosary_config(g, r)
        rho = canonical_1ps(cfg)
        r2 = hilbert_index(cfg, rho, 2)
        r3 = hilbert_index(cfg, rho, 3)
        if r % 2 == 0:
            assert (r2.weight_sum, r2.average, r2.mu) == (28 * g - 28, 28 * g - 28, 0)
            assert (r3.weight_sum, r3.average, r3.mu) == (66 * g - 66, 66 * g - 66, 0)
        else:
            assert (r2.weight_sum, r2.average, r2.mu) == (28 * g - 41, 28 * g - 42, -1)
            assert (r3.weight_sum, r3.average, r3.mu) == (66 * g - 97, 66 * g - 99, -2)
        assert r2.count_matches_hilbert and r3.count_matches_hilbert

    @pytest.mark.parametrize("r", [4, 6, 8])
    def test_closed_rosary(self, r):
        cfg = build_closed_rosary_config(r)
        rho = canonical_1ps(cfg)
        r2 = hilbert_index(cfg, rho, 2)
        r3 = hilbert_index(cfg, rho, 3)
        assert r2.mu == 0 and r3.mu == 0
        assert r2.weight_sum == 28 * r
        assert r2.standard_count == 7 * r and r3.standard_count == 11 * r

    @pytest.mark.parametrize("r", [3, 5, 7])
    def test_broken_bead(self, r):
        cfg = build_broken_bead_config(r)
        rho = canonical_1ps(cfg)
        r2 = hilbert_index(cfg, rho, 2)
        r3 = hilbert_index(cfg, rho, 3)
        assert (r2.weight_sum, r2.average, r2.mu) == (28 * r - 13, 28 * r - 14, -1)
        assert (r3.weight_sum, r3.average, r3.mu) == (66 * r - 31, 66 * r - 33, -2)

    def test_standard_counts_match_hilbert_polynomial(self):
        for cfg in (build_closed_rosary_config(4), build_broken_bead_config(5)):
            rho = canonical_1ps(cfg)
            for m in (2, 3, 4):
                rep = hilbert_index(cfg, rho, m)
                assert rep.standard_count == hilbert_polynomial(cfg.genus, m)

    def test_interpolation_identity_degree_4(self):
        for cfg in (
            build_closed_rosary_config(4),
            build_broken_bead_config(3),
            build_broken_bead_config(5),
        ):
            rho = canonical_1ps(cfg)
            r2 = hilbert_index(cfg, rho, 2)
            r3 = hilbert_index(cfg, rho, 3)
            r4 = hilbert_index(cfg, rho, 4)
            assert extrapolate_index(r2.mu, r3.mu, 4) == r4.mu

    def test_weight_shift_invariance(self):
        cfg = build_broken_bead_config(3)
        rho = canonical_1ps(cfg)
        for m in (2, 3):
            base = hilbert_index(cfg, rho, m).mu
            shifted = hilbert_index(cfg, rho.shifted(5), m).mu
            assert base == shifted

    def test_split_requires_constant_d_weights(self):
        cfg = build_open_rosary_config(5, 2)
        w = list(canonical_1ps(cfg).weights)
        w[-1] = 7
        with pytest.raises(EngineError, match="single weight on the D coordinates"):
            hilbert_index(cfg, OneParamSubgroup(tuple(w)), 2)

    def test_degree_below_two_rejected(self):
        cfg = build_closed_rosary_config(4)
        with pytest.raises(EngineError):
            hilbert_index(cfg, canonical_1ps(cfg), 1)


class TestFormulas:
    def test_extrapolate_trivial(self):
        assert extrapolate_index(0, 0, 17) == 0

    def test_extrapolate_broken_bead_values(self):
        for m in range(2, 7):
            assert extrapolate_index(-1, -2, m) == 1 - m

    def test_extrapolate_endpoints(self):
        mu2, mu3 = Fraction(5, 3), Fraction(-7, 2)
        assert extrapolate_index(mu2, mu3, 2) == mu2
        assert extrapolate_index(mu2, mu3, 3) == mu3

    def test_chow_sign(self):
        assert chow_index_sign(0, 0) == 0
        assert chow_index_sign(-1, -2) == 0
        assert chow_index_sign(1, 3) == 1
        assert chow_index_sign(1, 1) == -1

    def test_point_index(self):
        assert point_index([0], OneParamSubgroup((3, 0, 0))) == -2
        assert point_index([2], OneParamSubgroup((5, 3, 1, 0))) == Fraction(5, 4)
        rho = OneParamSubgroup((4, 2, 1))
        full = point_index([0, 1, 2], rho)
        assert full == -1 + Fraction(7, 3)
        with pytest.raises(EngineError):
            point_index([], rho)

    def test_suite_chow_sign(self):
        cfg = build_broken_bead_config(3)
        suite = index_suite(cfg, canonical_1ps(cfg), [2, 3])
        assert suite.chow_sign == 0
        only2 = index_suite(cfg, canonical_1ps(cfg), [2])
        assert only2.chow_sign is None


class TestOpenRosaryBlock:
    """The rosary block of a split configuration, on its own coordinates."""

    @pytest.mark.parametrize("g,r", [(4, 1), (5, 2), (6, 3), (7, 4), (8, 5)])
    def test_block_counts_and_sums(self, g, r):
        cfg = build_open_rosary_config(g, r)
        rho = canonical_1ps(cfg).restrict(3 * r + 1)
        s2 = evaluate_slice(cfg, 2, MonomialOrder(rho))
        s3 = evaluate_slice(cfg, 3, MonomialOrder(rho))
        assert s2.standard_count == 7 * r + 1
        assert s3.standard_count == 11 * r + 1
        assert len(s2.initial_monomials()) == (9 * r * r - 5 * r) // 2
        if r % 2 == 0:
            assert s2.standard_weight_sum() == 28 * r + 4
            assert s3.standard_weight_sum() == 66 * r + 6
        else:
            assert s2.standard_weight_sum() == 28 * r - 9
            assert s3.standard_weight_sum() == 66 * r - 25


class TestDegreeThreeStructure:
    """Degree-3 leading terms are the degree-2 multiples plus one syzygy
    leading term per bead junction."""

    @pytest.mark.parametrize("r", [4, 6])
    def test_closed_rosary_degree3(self, r):
        c = build_closed_rosary_config(r)
        order = MonomialOrder(canonical_1ps(c))
        n = 3 * r
        s2 = evaluate_slice(c, 2, order)
        s3 = evaluate_slice(c, 3, order)

        def cube(i, j, k):
            m = [0] * n
            m[i] += 1
            m[j] += 1
            m[k] += 1
            return tuple(m)

        predicted = {cube(3 * r - 3, 3 * r - 3, 3 * r - 1), cube(1, 3 * r - 3, 3 * r - 3)}
        predicted |= {cube(3 * j - 2, 3 * j, 3 * j) for j in range(1, r)}
        for m2 in s2.initial_monomials():
            for v in range(n):
                m3 = list(m2)
                m3[v] += 1
                predicted.add(tuple(m3))
        assert set(s3.initial_monomials()) == predicted


ORACLE_BUILDERS = {
    "closed": build_closed_rosary_config,
    "broken": build_broken_bead_config,
    "open": build_open_rosary_config,
}
ORACLE_CONFIGS = (
    [("closed", r) for r in range(3, 7)]
    + [("broken", r) for r in (3, 5, 7)]  # broken beads exist for odd r only
    + [("open", g, r) for g, r in ((5, 2), (6, 3), (9, 5))]
)


def _block_orders(cfg):
    """A scrambled weight order, the same weights under a scrambled variable
    precedence, and the canonical order where the family has it."""
    n = cfg.parametrization.num_coordinates
    scrambled = OneParamSubgroup(tuple((5 * i) % 7 - 3 for i in range(n)))
    precedence = tuple(sorted(range(n), key=lambda i: ((3 * i) % 5, -i)))
    orders = [MonomialOrder(scrambled), MonomialOrder(scrambled, precedence)]
    try:
        orders.append(MonomialOrder(canonical_1ps(cfg).restrict(n)))
    except FamilyError:
        pass  # closed rosaries of odd length have no canonical subgroup
    return orders


def _random_orders(n, seed):
    """Two seeded random weight vectors in [-4, 6], whose many ties leave the
    order to the precedence, each under the default and a shuffled
    precedence."""
    rng = random.Random(seed)
    orders = []
    for _ in range(2):
        weights = OneParamSubgroup(tuple(rng.randint(-4, 6) for _ in range(n)))
        orders += [MonomialOrder(weights), MonomialOrder(weights, tuple(rng.sample(range(n), n)))]
    return orders


class TestFullEnumerationOracle:
    """The supported-only elimination against the full-enumeration one."""

    def _check(self, cfg, m):
        for order in _block_orders(cfg):
            self._check_order(cfg, m, order)

    def _check_order(self, cfg, m, order):
        monos, standard, _ = full_slice(cfg, m, order)
        sl = evaluate_slice(cfg, m, order)
        assert sl.monomials == monos
        listed = supported_monomials(sl)
        supported = set(listed)
        assert listed == tuple(mo for mo in monos if mo in supported)
        assert sl.standard == standard
        assert sl.standard_count == sum(standard)
        assert sl.standard_weight_sum() == sum(
            order.weight(mo) for mo, s in zip(monos, standard) if s
        )
        assert sl.initial_monomials() == [mo for mo, s in zip(monos, standard) if not s]

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    @pytest.mark.parametrize(
        "spec", ORACLE_CONFIGS, ids=lambda spec: "-".join(map(str, spec))
    )
    def test_matches_full_enumeration(self, spec, m):
        self._check(ORACLE_BUILDERS[spec[0]](*spec[1:]), m)

    @pytest.mark.parametrize("m", range(1, 7))
    @pytest.mark.parametrize(
        "spec", [("closed", 3), ("closed", 4), ("broken", 3), ("open", 5, 2)],
        ids=lambda spec: "-".join(map(str, spec)),
    )
    def test_matches_full_enumeration_random_orders(self, spec, m):
        cfg = ORACLE_BUILDERS[spec[0]](*spec[1:])
        n = cfg.parametrization.num_coordinates
        for order in _random_orders(n, "-".join(map(str, spec)) + f"/{m}"):
            self._check_order(cfg, m, order)

    def test_matches_full_enumeration_degree_5(self):
        self._check(build_broken_bead_config(3), 5)

    @pytest.mark.parametrize(
        "cfg",
        [build_closed_rosary_config(3), build_broken_bead_config(3)],
        ids=["closed-3", "broken-3"],
    )
    def test_matches_full_enumeration_degree_6(self, cfg):
        self._check(cfg, 6)

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 6])
    @pytest.mark.parametrize(
        "maps, weights",
        [
            # two quartics on the same five coordinates, in different orders:
            # every column is an edge, and the edges close even cycles
            ([(4, [(0, 4), (1, 3), (2, 2), (3, 1), (4, 0)]),
              (4, [(0, 4), (1, 2), (2, 0), (3, 3), (4, 1)])], None),
            # three components, each pair sharing coordinates: odd cycles
            ([(3, [(0, 3), (1, 3)]), (3, [(0, 2), (1, 2), (2, 3), (3, 1)]), (2, [(2, 2), (3, 0)])],
             None),
            # every coordinate on two of three components: at m = 2 under these
            # weights an odd cycle closes at a row that is not a root, so the
            # parity `find` returns for it decides a standard monomial
            ([(5, [(2, 2), (3, 4), (4, 5), (5, 3)]), (5, [(0, 1), (1, 2), (2, 0), (3, 3)]),
              (3, [(0, 3), (1, 1), (4, 0), (5, 2)])], (-2, -3, 0, 1, -2, 2)),
            # the same kind: at m = 2 a row two steps below its root is read,
            # compressed, joined to a new root and read again, so the parity
            # that path compression stores decides a standard monomial
            ([(6, [(0, 2), (1, 0), (2, 4), (5, 1), (6, 3)]),
              (6, [(0, 4), (1, 2), (2, 0), (3, 3), (4, 5)]),
              (6, [(3, 4), (4, 0), (5, 3), (6, 1)])], (0, 2, 2, 1, 1, 3, 3)),
        ],
        ids=["even-cycles", "odd-cycles", "non-root-parity", "compressed-parity"],
    )
    def test_signed_graph_with_cycles(self, maps, weights, m):
        """Every rosary slice is a matching plus half-edges; these synthetic
        parametrizations, given as (degree, [(coord, s-exponent)]) per
        component on 5 coordinates or on as many as `weights` has, are not.
        Only the parametrization enters a slice."""
        n = len(weights) if weights else 5
        par = Parametrization(
            n,
            tuple(
                ComponentMap(f"C{k}", tuple(ParamTerm(c, a, d - a) for c, a in terms))
                for k, (d, terms) in enumerate(maps)
            ),
        )
        cfg = with_parametrization(build_closed_rosary_config(3), par)
        self._check(cfg, m)
        orders = _random_orders(n, f"{maps}/{m}")
        if weights:
            orders.append(MonomialOrder(OneParamSubgroup(weights)))
        for order in orders:
            self._check_order(cfg, m, order)

    @pytest.mark.parametrize("m", [2, 3])
    @pytest.mark.parametrize(
        "cfg",
        [build_closed_rosary_config(3), build_broken_bead_config(3), build_open_rosary_config(5, 2)],
        ids=["closed-3", "broken-3", "open-5-2"],
    )
    def test_standard_monomials_are_substitution_pivots(self, cfg, m):
        """Over QQ, with columns in ascending order, the pivot columns of the
        full substitution matrix are the standard monomials."""
        sympy = pytest.importorskip("sympy")
        sl = evaluate_slice(cfg, m)
        matrix = sympy.Matrix(substitution_matrix(cfg, m, sl.monomials))
        _, pivots = matrix.rref()
        assert list(pivots) == [j for j, s in enumerate(sl.standard) if s]
        assert matrix.rank() == sl.standard_count


class TestSliceKeys:
    """Each supported monomial is one int key: weight * n^m, then its rank
    sequence descending."""

    @pytest.mark.parametrize("m", [1, 2, 5])
    @pytest.mark.parametrize(
        "cfg",
        [build_closed_rosary_config(5), build_broken_bead_config(3), build_open_rosary_config(9, 5)],
        ids=["closed-5", "broken-3", "open-9-5"],
    )
    def test_keys_ascend_and_hold_the_weight(self, cfg, m):
        for order in _block_orders(cfg):
            sl = evaluate_slice(cfg, m, order)
            base = order.nvars**m
            keys, supported = supported_keys(sl), supported_monomials(sl)
            assert list(keys) == sorted(set(keys))
            assert set(sl.standard_keys) <= set(keys)
            assert [key // base for key in keys] == [order.weight(mo) for mo in supported]
            assert list(supported) == order.sorted_ascending(supported)

    @pytest.mark.parametrize("m", [1, 3])
    def test_sparse_decodes_to_supported(self, m):
        cfg = build_broken_bead_config(5)
        for order in _block_orders(cfg):
            sl = evaluate_slice(cfg, m, order)
            dense = []
            for mono in sparse_monomials(sl):
                assert [c for c, _ in mono] == sorted({c for c, _ in mono})
                assert sum(e for _, e in mono) == m and all(e > 0 for _, e in mono)
                vec = [0] * order.nvars
                for c, e in mono:
                    vec[c] = e
                dense.append(tuple(vec))
            assert tuple(dense) == supported_monomials(sl)

    def test_index_builds_no_monomial(self):
        cfg = build_closed_rosary_config(6)
        rep = hilbert_index(cfg, canonical_1ps(cfg), 4)
        assert rep.mu == 0
        assert "monomials" not in rep.slice.__dict__
        assert "standard" not in rep.slice.__dict__


SHAPE_CONFIGS = (
    [("closed", r) for r in (3, 4, 5, 6, 8, 9, 12, 40)]
    + [("broken", r) for r in (3, 5, 7, 9, 11)]
    + [("open", g, r) for g, r in ((6, 3), (7, 4), (9, 5), (12, 6), (20, 8))]
)


def _affine_orders(par, seed):
    """Three weight vectors that are affine in the s exponent on each
    component in turn (w = a_k + b_k * e, a later component overwriting the
    coordinates it shares), each under the default and a shuffled
    precedence.  Each vector draws (a_k, b_k) from two random pairs, so that
    components of one shape often carry different weights."""
    rng = random.Random(seed)
    n = par.num_coordinates
    orders = []
    for _ in range(3):
        w = [0] * n
        pairs = [(rng.randint(-3, 3), rng.randint(-2, 2)) for _ in range(2)]
        for cm in par.maps:
            a, b = rng.choice(pairs)
            for t in cm.terms:
                w[t.coord] = a + b * t.s_exp
        weights = OneParamSubgroup(tuple(w))
        orders += [MonomialOrder(weights), MonomialOrder(weights, tuple(rng.sample(range(n), n)))]
    return orders


class TestShapeCandidates:
    """`engine._candidates` runs one dynamic program per component shape and
    translates it to the other components of that shape; the oracle runs one
    per component."""

    @staticmethod
    def _count_runs(monkeypatch):
        runs = []
        tables = engine._shape_tables

        def counted(shape, m, n, span):
            runs.append(shape)
            return tables(shape, m, n, span)

        monkeypatch.setattr(engine, "_shape_tables", counted)
        return runs

    @pytest.mark.parametrize("spec", SHAPE_CONFIGS, ids=lambda spec: "-".join(map(str, spec)))
    def test_matches_per_component_oracle(self, monkeypatch, spec):
        runs = self._count_runs(monkeypatch)
        cfg = ORACLE_BUILDERS[spec[0]](*spec[1:])
        par = cfg.parametrization
        n = par.num_coordinates
        held = holders(par)
        for m in range(1, 7):
            tag = "-".join(map(str, spec)) + f"/{m}"
            orders = _random_orders(n, tag) + _affine_orders(par, tag)
            try:
                orders.append(MonomialOrder(canonical_1ps(cfg).restrict(n)))
            except FamilyError:
                pass  # closed rosaries of odd length have no canonical subgroup
            for order in orders:
                runs.clear()
                assert sorted(engine._candidates(par, m, order, held)) == sorted(
                    candidates(par, m, order, held)
                )
                assert 1 <= len(runs) <= len(par.maps)

    @pytest.mark.parametrize(
        "spec,expected",
        [
            (("closed", 6), 2),
            (("closed", 8), 2),
            (("broken", 5), 4),
            (("broken", 7), 4),
            (("open", 9, 5), 4),
            (("open", 12, 6), 4),
        ],
        ids=lambda v: "-".join(map(str, v)) if isinstance(v, tuple) else str(v),
    )
    def test_one_run_per_shape_and_call(self, monkeypatch, spec, expected):
        runs = self._count_runs(monkeypatch)
        cfg = ORACLE_BUILDERS[spec[0]](*spec[1:])
        rho = canonical_1ps(cfg)
        first = hilbert_index(cfg, rho, 5)
        assert len(runs) == len(set(runs)) == expected
        # no table outlives a call: the same index runs the same programs again
        assert hilbert_index(cfg, rho, 5) == first
        assert len(runs) == 2 * expected

    @pytest.mark.parametrize("alpha,gamma", [(0, 0), (3, 1), (-2, -1), (5, -3), (-1, 4)])
    def test_affine_weight_class_is_one_shape(self, monkeypatch, alpha, gamma):
        """Two conics on their own coordinates, with s exponents 0, 2, 1 in
        rank order, and weights w and w + alpha + gamma * e: the first step
        of e is 2, so only a floor division gives both the same shape."""
        runs = self._count_runs(monkeypatch)
        exps = (0, 2, 1)
        par = Parametrization(
            6,
            tuple(
                ComponentMap(
                    f"C{k}", tuple(ParamTerm(3 * k + j, a, 2 - a) for j, a in enumerate(exps))
                )
                for k in range(2)
            ),
        )
        w = (0, -1, 4)
        weights = w + tuple(x + alpha + gamma * a for x, a in zip(w, exps))
        order = MonomialOrder(OneParamSubgroup(weights))
        held = holders(par)
        for m in range(1, 5):
            runs.clear()
            assert sorted(engine._candidates(par, m, order, held)) == sorted(
                candidates(par, m, order, held)
            )
            assert len(runs) == 1


class TestExtrapolationBeyondDegreeFour:
    @pytest.mark.parametrize(
        "cfg",
        [
            build_closed_rosary_config(6),
            build_broken_bead_config(5),
            build_open_rosary_config(9, 5),
            build_open_rosary_config(12, 6),
        ],
        ids=["closed-6", "broken-5", "open-9-5", "open-12-6"],
    )
    def test_direct_index_matches_extrapolation(self, cfg):
        rho = canonical_1ps(cfg)
        r2 = hilbert_index(cfg, rho, 2)
        r3 = hilbert_index(cfg, rho, 3)
        assert r2.count_matches_hilbert and r3.count_matches_hilbert
        for m in range(4, 9):
            rep = hilbert_index(cfg, rho, m)
            assert rep.count_matches_hilbert
            assert rep.mu == extrapolate_index(r2.mu, r3.mu, m)
