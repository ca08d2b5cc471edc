"""Each parametrization keeps its own `_SliceData`, the slice kernel's
weight-free tables, built the first time a slice passes its checks."""

import pickle
from fractions import Fraction

import pytest

from gitcurves import engine
from gitcurves.engine import EngineError, evaluate_slice, hilbert_index
from gitcurves.families import (
    ComponentMap,
    OneParamSubgroup,
    ParamTerm,
    Parametrization,
    build_broken_bead_config,
    build_closed_rosary_config,
    build_open_rosary_config,
    canonical_1ps,
)
from gitcurves.monomials import MonomialOrder


def count_builds(monkeypatch):
    built = []
    record = engine._SliceData
    monkeypatch.setattr(engine, "_SliceData", lambda par: built.append(par) or record(par))
    return built


def indices(cfg, degrees=(2, 3, 5)):
    rho = canonical_1ps(cfg)
    return [hilbert_index(cfg, rho, m) for m in degrees]


def test_record_is_built_once_per_parametrization(monkeypatch):
    built = count_builds(monkeypatch)
    cfg = build_closed_rosary_config(6)
    par = cfg.parametrization
    with pytest.raises(AttributeError):
        par._data  # empty until the first slice
    first = indices(cfg)
    data = par._data
    reversed_weights = OneParamSubgroup(tuple(reversed(canonical_1ps(cfg).weights)))
    evaluate_slice(cfg, 4, MonomialOrder(reversed_weights))  # another order, the same record
    assert indices(cfg) == first
    assert par._data is data and engine._slice_data(par) is data
    assert built == [par]


@pytest.mark.parametrize(
    "build",
    [
        lambda: build_closed_rosary_config(6),
        lambda: build_broken_bead_config(5),
        lambda: build_open_rosary_config(9, 5),
    ],
    ids=["closed-6", "broken-5", "open-9-5"],
)
def test_equal_parametrizations_built_apart_have_equal_records(build):
    a, b = build(), build()
    assert a.parametrization is not b.parametrization and a.parametrization == b.parametrization
    assert indices(a) == indices(b)
    da, db = a.parametrization._data, b.parametrization._data
    assert da is not db
    assert da.degrees == db.degrees and da.components == db.components


def test_pickle_carries_no_record():
    cfg = build_closed_rosary_config(6)
    first = indices(cfg)
    par = cfg.parametrization
    state = par.__getstate__()
    assert "_data" not in state and set(state) == {"num_coordinates", "maps"}
    again = pickle.loads(pickle.dumps(par))
    with pytest.raises(AttributeError):
        again._data  # the record slot is empty until the first slice
    assert again == par and hash(again) == hash(par)
    assert indices(pickle.loads(pickle.dumps(cfg))) == first
    assert engine._slice_data(again) is not par._data


def test_over_budget_slice_builds_no_record(monkeypatch):
    built = count_builds(monkeypatch)
    cfg = build_closed_rosary_config(3334)
    with pytest.raises(EngineError, match="^degree-2 slice has up to 50010 supported"):
        hilbert_index(cfg, canonical_1ps(cfg), 2)
    with pytest.raises(EngineError, match="^degree-2 slice has up to 50010 supported"):
        evaluate_slice(cfg, 2)
    assert built == []
    with pytest.raises(AttributeError):
        cfg.parametrization._data


def test_index_bounds_its_slice_before_the_graph_record(monkeypatch):
    # `hilbert_index` checks the budget before the genus builds the graph's
    # record, and its `evaluate_slice` checks the same slice again
    checked = []
    check = engine._check_slice_size
    monkeypatch.setattr(engine, "_check_slice_size", lambda size, m: checked.append(m) or check(size, m))
    for cfg in (build_closed_rosary_config(6), build_open_rosary_config(9, 5)):
        checked.clear()
        indices(cfg, (2, 3, 2, 5))
        assert checked == [2, 2, 3, 3, 2, 2, 5, 5]
        evaluate_slice(cfg, 4)  # a direct caller is bounded too
        assert checked[8:] == [4]
    monkeypatch.setattr(engine, "SLICE_BUDGET", 0)
    with pytest.raises(EngineError, match="^degree-4 slice has up to"):
        evaluate_slice(cfg, 4)  # a slice that passed is bounded again under a new budget
    fresh = build_closed_rosary_config(6)
    with pytest.raises(EngineError, match="^degree-2 slice has up to"):
        hilbert_index(fresh, canonical_1ps(fresh), 2)
    with pytest.raises(AttributeError):
        fresh.graph._data  # refused before the genus built the graph's record


def test_wrong_order_length_builds_no_record(monkeypatch):
    built = count_builds(monkeypatch)
    cfg = build_closed_rosary_config(4)
    with pytest.raises(EngineError, match="^order on 3 coordinates"):
        evaluate_slice(cfg, 2, MonomialOrder(OneParamSubgroup((0, 0, 0))))
    assert built == []


@pytest.mark.parametrize(
    "terms, message",
    [
        # both faults: the coefficient is reported first, as before the record
        ([[(0, 1, 1), (1, 0, 2)], [(0, 0, 1), (2, 1, 1)], [(0, 1, 1), (1, 1, 1)]],
         "coordinate x1 has coefficient 2; the slice kernel needs coefficient 1"),
        ([[(0, 1, 1), (1, 0, 1)], [(0, 0, 1), (2, 1, 1)], [(0, 1, 1), (1, 1, 1)]],
         "coordinate x0 lies on 3 components; the slice kernel admits at most 2"),
    ],
    ids=["coefficient", "three-components"],
)
def test_failed_build_stores_nothing(terms, message):
    """Three lines on 3 coordinates, as (coordinate, s exponent, coefficient)."""
    par = Parametrization(
        3,
        tuple(
            ComponentMap(f"C{k}", tuple(ParamTerm(c, a, 1 - a, Fraction(q)) for c, a, q in line))
            for k, line in enumerate(terms)
        ),
    )
    for _ in range(2):  # a failed build is tried again, and fails the same way
        with pytest.raises(EngineError) as exc:
            engine._slice_data(par)
        assert str(exc.value) == message
        with pytest.raises(AttributeError):
            par._data
