"""Family builders: graphs, parametrizations, canonical weight vectors."""

import pytest

from gitcurves.families import (
    FamilyError,
    OneParamSubgroup,
    branch_parameter_weight,
    build_broken_bead_config,
    build_closed_rosary_config,
    build_open_rosary_config,
    canonical_1ps,
    component_st_weights,
    configuration_from_dict,
    torus_generators,
)
from gitcurves.graphs import TACNODE, arithmetic_genus, classify


class TestOpenRosary:
    def test_shape_5_2(self):
        c = build_open_rosary_config(5, 2)
        assert c.is_split()
        assert c.parametrization.num_coordinates == 7
        assert c.num_coordinates == 12
        assert c.split.d_genus == 2
        assert len(c.graph.components) == 4  # three beads plus D
        assert arithmetic_genus(c.graph) == 5

    def test_minimal_case_4_1(self):
        c = build_open_rosary_config(4, 1)
        assert c.parametrization.num_coordinates == 4
        assert c.split.d_genus == 2
        assert sum(1 for x in c.graph.intersections if x.kind == TACNODE) == 1

    def test_invalid_r(self):
        with pytest.raises(FamilyError):
            build_open_rosary_config(5, 4)  # r = g - 1: D would have genus 0
        with pytest.raises(FamilyError):
            build_open_rosary_config(5, 0)

    def test_classification(self):
        even = classify(build_open_rosary_config(6, 2).graph)
        odd = classify(build_open_rosary_config(6, 3).graph)
        assert even.c_semistable and even.h_semistable and not even.h_stable
        assert odd.c_semistable and not odd.h_semistable

    def test_weights(self):
        c = build_open_rosary_config(5, 2)
        assert canonical_1ps(c).weights == (2, 1, 0, 2, 3, 4, 2, 2, 2, 2, 2, 2)
        c = build_open_rosary_config(6, 3)
        assert canonical_1ps(c).weights == (2, 1, 0, 2, 3, 4, 2, 1, 0, 2) + (2,) * 5


class TestClosedRosary:
    def test_shape_r6(self):
        c = build_closed_rosary_config(6)
        assert not c.is_split()
        assert c.genus == 7
        assert c.parametrization.num_coordinates == 18
        assert c.num_coordinates == 18

    def test_r4(self):
        c = build_closed_rosary_config(4)
        assert c.genus == 5
        assert c.parametrization.num_coordinates == 12

    def test_r2_rejected(self):
        with pytest.raises(FamilyError):
            build_closed_rosary_config(2)

    def test_weights_repeat(self):
        c = build_closed_rosary_config(6)
        assert canonical_1ps(c).weights == (3, 4, 2, 1, 0, 2) * 3

    def test_odd_length_has_no_canonical_subgroup(self):
        c = build_closed_rosary_config(5)
        with pytest.raises(FamilyError):
            canonical_1ps(c)
        assert torus_generators(c) == []


class TestBrokenBead:
    def test_shape_r5(self):
        c = build_broken_bead_config(5)
        assert c.genus == 6
        assert len(c.graph.components) == 6
        assert c.parametrization.num_coordinates == 15

    def test_r3(self):
        assert build_broken_bead_config(3).genus == 4

    def test_parity_rejected(self):
        with pytest.raises(FamilyError):
            build_broken_bead_config(4)
        with pytest.raises(FamilyError):
            build_broken_bead_config(1)

    def test_weights(self):
        c = build_broken_bead_config(5)
        assert canonical_1ps(c).weights == (1, 0, 2) + (1, 0, 2, 3, 4, 2) * 2

    def test_classification(self):
        flags = classify(build_broken_bead_config(5).graph)
        assert flags.c_semistable
        assert not flags.h_semistable  # closed elliptic chain


class TestInvariants:
    def test_bicanonical_degree(self):
        for cfg in (
            build_closed_rosary_config(4),
            build_closed_rosary_config(6),
            build_broken_bead_config(3),
            build_broken_bead_config(5),
        ):
            assert cfg.parametrization.total_degree() == 4 * cfg.genus - 4

    def test_split_degree_accounting(self):
        c = build_open_rosary_config(6, 3)
        # beads carry degree 4r of the total 4g-4; D carries the rest
        assert c.parametrization.total_degree() == 4 * 3
        assert 4 * c.genus - 4 - 4 * 3 == 4 * c.split.d_genus

    def test_tangent_weight_alternation(self):
        # the torus acts on the two end tangent spaces of each bead with
        # weights of opposite sign on adjacent beads
        for cfg in (
            build_open_rosary_config(7, 4),
            build_closed_rosary_config(6),
        ):
            rho = canonical_1ps(cfg).restrict(cfg.parametrization.num_coordinates)
            st = component_st_weights(cfg, rho)
            diffs = [st[m.component][0] - st[m.component][1] for m in cfg.parametrization.maps]
            assert all(abs(d) == 1 for d in diffs)
            for a, b in zip(diffs, diffs[1:]):
                assert a == -b

    def test_one_weight_on_the_d_block(self):
        c = build_open_rosary_config(6, 3)
        rho = canonical_1ps(c)
        assert c.split.d_weight(rho) == 2
        assert branch_parameter_weight(c, rho, 0, 0) == 0
        for i in (c.split.attach_coords[1], c.split.block_size, len(rho) - 1):
            w = list(rho.weights)
            w[i] = 7
            bad = OneParamSubgroup(tuple(w))
            assert c.split.d_weight(bad) is None
            with pytest.raises(FamilyError, match="weights are not constant on the D block"):
                branch_parameter_weight(c, bad, 0, 0, st_weights={})

    def test_st_weights_reject_non_automorphism(self):
        c = build_closed_rosary_config(4)
        bad = OneParamSubgroup(tuple([1] + [0] * 11))
        with pytest.raises(FamilyError):
            component_st_weights(c, bad)


class TestSerialization:
    def test_round_trip_through_dict(self):
        for cfg in (
            build_open_rosary_config(5, 2),
            build_closed_rosary_config(4),
            build_broken_bead_config(3),
        ):
            doc = cfg.to_dict()
            again = configuration_from_dict(doc)
            assert again == cfg

    def test_rejects_non_integer_params(self):
        doc = build_open_rosary_config(5, 2).to_dict()
        for bad in ("5", 5.0, True, None):
            doc["params"]["g"] = bad
            with pytest.raises(FamilyError):
                configuration_from_dict(doc)

    def test_rejects_missing_or_extra_params(self):
        with pytest.raises(FamilyError):
            configuration_from_dict({"family": "open-rosary", "params": {"g": 5}})
        with pytest.raises(FamilyError):
            configuration_from_dict({"family": "closed-rosary", "params": {"r": 4, "g": 5}})

    def test_rejects_document_that_differs_from_family(self):
        for key, value in (
            ("num_coordinates", 99),
            ("genus", 6),
            ("mode", "full"),
            ("split", None),
            ("extra", 1),
        ):
            doc = build_open_rosary_config(5, 2).to_dict()
            doc[key] = value
            with pytest.raises(FamilyError):
                configuration_from_dict(doc)

    def test_family_and_params_alone_suffice(self):
        doc = {"family": "closed-rosary", "params": {"r": 4}}
        assert configuration_from_dict(doc) == build_closed_rosary_config(4)

    def test_unknown_family(self):
        with pytest.raises(FamilyError):
            configuration_from_dict({"family": "pentagon", "params": {}})
        with pytest.raises(FamilyError):
            configuration_from_dict({"family": ["closed-rosary"], "params": {"r": 4}})
        with pytest.raises(FamilyError):
            configuration_from_dict(["closed-rosary"])
