"""Value semantics of the library's immutable records.

Every record compares and hashes by its fields, refuses assignment and
deletion, prints as `Name(field=value, ...)` and survives a pickle round
trip.  The expected `repr` strings are the ones the records have always
printed, so a change to how records are defined keeps every printed value.
"""

import pickle
from fractions import Fraction

import pytest

from gitcurves import _Record
from gitcurves.basins import BasinReport, VersalWeights
from gitcurves.chow import BranchData, MultiplicityCertificate
from gitcurves.divisors import DivisorClass
from gitcurves.engine import IdealSlice, IndexReport, IndexSuite
from gitcurves.families import (
    ComponentMap,
    Configuration,
    OneParamSubgroup,
    ParamTerm,
    Parametrization,
    SplitAttachment,
)
from gitcurves.graphs import (
    ChainRecord,
    Component,
    CurveGraph,
    Intersection,
    RosaryRecord,
    StabilityFlags,
)
from gitcurves.monomials import MonomialOrder
from gitcurves.paperchecks import CheckItem


def graph():
    return CurveGraph(
        (Component("E", 1), Component("R", 0, label="bridge")),
        (
            Intersection("tacnode", (("E", 0), ("R", 0))),
            Intersection("node", (("R", 1), ("R", 2))),
        ),
    )


def parametrization():
    return Parametrization(
        3, (ComponentMap("L", (ParamTerm(0, 2, 0), ParamTerm(2, 0, 2, Fraction(-3, 2)))),)
    )


def order():
    return MonomialOrder(OneParamSubgroup((1, 0, 2)))


def report(slice=None):
    return IndexReport(
        m=2,
        weight_sum=Fraction(3),
        average=Fraction(7, 2),
        mu=Fraction(-1, 2),
        standard_count=3,
        expected_count=3,
        count_matches_hilbert=True,
        slice=slice,
    )


GRAPH_REPR = (
    "CurveGraph(components=(Component(id='E', genus=1, cusps=0, label=None), "
    "Component(id='R', genus=0, cusps=0, label='bridge')), "
    "intersections=(Intersection(kind='tacnode', ends=(('E', 0), ('R', 0))), "
    "Intersection(kind='node', ends=(('R', 1), ('R', 2)))), marks=())"
)
PAR_REPR = (
    "Parametrization(num_coordinates=3, maps=(ComponentMap(component='L', "
    "terms=(ParamTerm(coord=0, s_exp=2, t_exp=0, coeff=Fraction(1, 1)), "
    "ParamTerm(coord=2, s_exp=0, t_exp=2, coeff=Fraction(-3, 2)))),))"
)
ORDER_REPR = "MonomialOrder(weights=OneParamSubgroup(weights=(1, 0, 2)))"
REPORT_REPR = (
    "IndexReport(m=2, weight_sum=Fraction(3, 1), average=Fraction(7, 2), "
    "mu=Fraction(-1, 2), standard_count=3, expected_count=3, count_matches_hilbert=True)"
)

#: (a builder of one record, the repr it prints); the builder makes a fresh
#: object with the same fields on every call
RECORDS = {
    "Component": (
        lambda: Component("E", 1, 2, "tail"),
        "Component(id='E', genus=1, cusps=2, label='tail')",
    ),
    "Intersection": (
        lambda: Intersection("node", (("A", 0), ("B", 1))),
        "Intersection(kind='node', ends=(('A', 0), ('B', 1)))",
    ),
    "StabilityFlags": (
        lambda: StabilityFlags(True, False, True, False, True, False),
        "StabilityFlags(dm_stable=True, pseudostable=False, c_semistable=True, "
        "c_stable=False, h_semistable=True, h_stable=False)",
    ),
    "CurveGraph": (graph, GRAPH_REPR),
    "ChainRecord": (
        lambda: ChainRecord(
            closed=False, weak=True, length=2, blocks=(("A",), ("B", "C")), ends=(0, 3)
        ),
        "ChainRecord(closed=False, weak=True, length=2, blocks=(('A',), ('B', 'C')), ends=(0, 3))",
    ),
    "RosaryRecord": (
        lambda: RosaryRecord(closed=True, beads=("B1", "B2"), length=2),
        "RosaryRecord(closed=True, beads=('B1', 'B2'), length=2, broken_beads=0, ends=())",
    ),
    "OneParamSubgroup": (
        lambda: OneParamSubgroup((1, -2, 3)),
        "OneParamSubgroup(weights=(1, -2, 3))",
    ),
    "ParamTerm": (
        lambda: ParamTerm(0, 2, 1),
        "ParamTerm(coord=0, s_exp=2, t_exp=1, coeff=Fraction(1, 1))",
    ),
    "ComponentMap": (
        lambda: ComponentMap("L", (ParamTerm(0, 1, 0), ParamTerm(1, 0, 1))),
        "ComponentMap(component='L', terms=(ParamTerm(coord=0, s_exp=1, t_exp=0, "
        "coeff=Fraction(1, 1)), ParamTerm(coord=1, s_exp=0, t_exp=1, coeff=Fraction(1, 1))))",
    ),
    "Parametrization": (parametrization, PAR_REPR),
    "SplitAttachment": (
        lambda: SplitAttachment(
            genus=5, d_genus=2, d_component="D", block_size=7, attach_coords=(0, 6)
        ),
        "SplitAttachment(genus=5, d_genus=2, d_component='D', block_size=7, attach_coords=(0, 6))",
    ),
    "Configuration": (
        lambda: Configuration(
            graph(), parametrization(), branch_points=(("s0", "t0"), (None, "s0")),
            family="test", params=(("r", 3),),
        ),
        f"Configuration(graph={GRAPH_REPR}, parametrization={PAR_REPR}, split=None, "
        "branch_points=(('s0', 't0'), (None, 's0')), family='test', params=(('r', 3),))",
    ),
    "MonomialOrder": (order, ORDER_REPR),
    "IdealSlice": (
        lambda: IdealSlice(
            degree=2, order=order(), standard_keys=(5, 7), parametrization=parametrization()
        ),
        f"IdealSlice(degree=2, order={ORDER_REPR}, standard_keys=(5, 7), "
        f"parametrization={PAR_REPR})",
    ),
    "IndexReport": (report, REPORT_REPR),
    "IndexSuite": (
        lambda: IndexSuite(reports=(report(),), chow_sign=-1),
        f"IndexSuite(reports=({REPORT_REPR},), chow_sign=-1)",
    ),
    "BranchData": (
        lambda: BranchData("cusp", (0, 2, None), tail_order=5),
        "BranchData(point='cusp', orders=(0, 2, None), tail_order=5)",
    ),
    "MultiplicityCertificate": (
        lambda: MultiplicityCertificate("cusp", Fraction(36), Fraction(24), "Unstable"),
        "MultiplicityCertificate(case='cusp', lower_bound=Fraction(36, 1), "
        "threshold=Fraction(24, 1), verdict='Unstable')",
    ),
    "VersalWeights": (
        lambda: VersalWeights(singularity=3, kind="node", parameter_weights=(Fraction(1, 2),)),
        "VersalWeights(singularity=3, kind='node', parameter_weights=(Fraction(1, 2),))",
    ),
    "BasinReport": (
        lambda: BasinReport(classifications=((0, "node", "smoothable"),), generic=graph()),
        f"BasinReport(classifications=((0, 'node', 'smoothable'),), generic={GRAPH_REPR})",
    ),
    "DivisorClass": (
        lambda: DivisorClass(5, Fraction(9), delta_total=Fraction(-1)),
        "DivisorClass(g=5, lam=Fraction(9, 1), delta_total=Fraction(-1, 1), delta_vector=None)",
    ),
    "CheckItem": (
        lambda: CheckItem("x/y", "an item", "1", str),
        "CheckItem(id='x/y', description='an item', expected='1', compute=<class 'str'>)",
    ),
}


def first_field(record) -> str:
    return repr(record).split("(", 1)[1].split("=", 1)[0]


@pytest.fixture(params=sorted(RECORDS))
def record_case(request):
    return RECORDS[request.param]


def test_every_record_is_covered():
    assert set(RECORDS) == {cls.__name__ for cls in _Record.__subclasses__()}
    assert len(RECORDS) == 22


def test_equal_fields_give_equal_records_and_hashes(record_case):
    make, _ = record_case
    a, b = make(), make()
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


def test_another_class_compares_unequal(record_case):
    make, _ = record_case
    a = make()
    assert a.__eq__(object()) is NotImplemented
    assert a != object()
    assert a != (make(),)


def test_fields_cannot_be_assigned_or_deleted(record_case):
    make, _ = record_case
    a = make()
    name = first_field(a)
    before = getattr(a, name)
    with pytest.raises(AttributeError):
        setattr(a, name, before)
    with pytest.raises(AttributeError):
        delattr(a, name)
    with pytest.raises(AttributeError):
        a.not_a_field = 1
    assert getattr(a, name) == before and a == make()


def test_repr_is_unchanged(record_case):
    make, expected = record_case
    assert repr(make()) == expected


def test_pickle_round_trip(record_case):
    make, expected = record_case
    a = make()
    again = pickle.loads(pickle.dumps(a))
    assert type(again) is type(a)
    assert again == a and hash(again) == hash(a)
    assert repr(again) == expected


def test_index_report_ignores_its_slice():
    sl = RECORDS["IdealSlice"][0]()
    bare, held = report(), report(sl)
    assert held.slice is sl and bare.slice is None
    assert bare == held and hash(bare) == hash(held)
    assert repr(held) == repr(bare) == REPORT_REPR
    assert pickle.loads(pickle.dumps(held)).slice == sl


def test_cached_properties_are_derived_not_compared():
    s = RECORDS["IdealSlice"][0]()
    assert s._key_base == 9
    assert s == RECORDS["IdealSlice"][0]()
