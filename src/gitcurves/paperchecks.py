"""Pinned golden checks: the reference values the engine must reproduce.

Each item recomputes one value from scratch and compares it against the
expectation frozen here.  The resulting manifest is deterministic: identical
inputs produce byte-identical JSON (items sorted by id, exact rationals
rendered as p/q, no timestamps).
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Callable, Optional

from . import __version__, _Record, fmt
from .basins import (
    basin_membership,
    c_closed_orbit_rep,
    enumerate_c_replacements,
    h_closed_orbit_rep,
    is_c_closed_orbit,
    is_h_closed_orbit,
    versal_weights,
)
from .chow import GENUS_ONE_TACNODE_TAIL, certify_unstable
from .divisors import (
    DivisorClass,
    canonical_alpha_class,
    epsilon_of_m,
    lambda_n,
    moriwaki_decomposition,
    proportional,
    viehweg_class,
)
from .engine import (
    IndexReport,
    chow_index_sign,
    extrapolate_index,
    hilbert_index,
)
from .families import (
    Configuration,
    OneParamSubgroup,
    build_broken_bead_config,
    build_closed_rosary_config,
    build_open_rosary_config,
    canonical_1ps,
    component_st_weights,
)
from .graphs import (
    Component,
    CurveGraph,
    Intersection,
    NODE,
    TACNODE,
    arithmetic_genus,
    bridge_chain_graph,
    classify,
    closed_rosary_graph,
    contact_multiplicity,
    find_weak_elliptic_chains,
    isomorphic,
    open_rosary_graph,
)
from .monomials import monomial_count


class CheckItem(_Record):
    __slots__ = ("id", "description", "expected", "compute")

    def __init__(self, id: str, description: str, expected: str,
                 compute: Callable[[], str]) -> None:
        self._init(id, description, expected, compute)


def _flags_str(g: CurveGraph) -> str:
    d = classify(g).as_dict()
    return ",".join(f"{k}={fmt(v)}" for k, v in d.items())


def _mu_pair(index, cfg, rho) -> str:
    r2 = index(cfg, rho, 2)
    r3 = index(cfg, rho, 3)
    return (
        f"mu2={fmt(r2.mu)} ws2={fmt(r2.weight_sum)} avg2={fmt(r2.average)} "
        f"mu3={fmt(r3.mu)} ws3={fmt(r3.weight_sum)} avg3={fmt(r3.average)}"
    )


def _tacnodal_tail_graph() -> CurveGraph:
    return CurveGraph(
        (Component("D", 3), Component("E", 1)),
        (Intersection(TACNODE, (("D", 0), ("E", 0))),),
    )


def build_items() -> list[CheckItem]:
    """The golden checks.  Several read the same slice, so each distinct
    (configuration, weights, degree) is evaluated once per call."""
    items: list[CheckItem] = []
    reports: dict[tuple, IndexReport] = {}

    def index(cfg: Configuration, rho: OneParamSubgroup, m: int) -> IndexReport:
        key = (cfg, rho, m)
        if key not in reports:
            reports[key] = hilbert_index(cfg, rho, m)
        return reports[key]

    def add(id_, desc, expected, compute):
        items.append(CheckItem(id_, desc, expected, compute))

    # --- genus arithmetic ---------------------------------------------------
    add(
        "genus/open-rosary-3",
        "arithmetic genus of an open rosary of length 3",
        "2",
        lambda: fmt(arithmetic_genus(open_rosary_graph(3))),
    )
    add(
        "genus/closed-rosary-6",
        "arithmetic genus of a closed rosary of length 6",
        "7",
        lambda: fmt(arithmetic_genus(closed_rosary_graph(6))),
    )
    add(
        "genus/broken-bead-preserved",
        "breaking a bead preserves the genus (length 5)",
        "6=6",
        lambda: f"{fmt(arithmetic_genus(closed_rosary_graph(5)))}="
        f"{fmt(arithmetic_genus(closed_rosary_graph(5, broken=[0])))}",
    )

    def _chain_genus(r):
        comps = tuple(Component(f"E{i}", 1) for i in range(r))
        xs = tuple(
            Intersection(TACNODE, ((f"E{i}", 1), (f"E{i+1}", 0)))
            for i in range(r - 1)
        )
        return arithmetic_genus(CurveGraph(comps, xs))

    add(
        "genus/elliptic-chain-4",
        "arithmetic genus of an open elliptic chain of length 4",
        "7",
        lambda: fmt(_chain_genus(4)),
    )

    # --- contact ------------------------------------------------------------
    add(
        "contact/bridge",
        "an elliptic bridge meets the rest of the curve in two points",
        "2",
        lambda: fmt(contact_multiplicity(bridge_chain_graph([1]), {"E1"})),
    )
    add(
        "contact/end-bead",
        "end bead of an attached rosary: one node plus one tacnode",
        "3",
        lambda: fmt(
            contact_multiplicity(
                build_open_rosary_config(6, 3).graph, {"L1"}
            )
        ),
    )

    # --- classification -----------------------------------------------------
    add(
        "classify/bridge",
        "an elliptic bridge is c-semistable but neither c-stable nor h-semistable",
        "dm_stable=true,pseudostable=true,c_semistable=true,c_stable=false,"
        "h_semistable=false,h_stable=false",
        lambda: _flags_str(bridge_chain_graph([1])),
    )
    add(
        "classify/smooth",
        "a smooth genus-5 curve satisfies every stability notion",
        "dm_stable=true,pseudostable=true,c_semistable=true,c_stable=true,"
        "h_semistable=true,h_stable=true",
        lambda: _flags_str(CurveGraph((Component("C", 5),))),
    )
    add(
        "classify/tacnodal-tail",
        "genus-one subcurve attached at one tacnode is not c-semistable",
        "false",
        lambda: fmt(classify(_tacnodal_tail_graph()).c_semistable),
    )
    add(
        "classify/even-rosary-config",
        "even-length attached rosary admits an elliptic chain",
        "c_semistable=true,h_semistable=false",
        lambda: (
            lambda f: f"c_semistable={fmt(f.c_semistable)},h_semistable={fmt(f.h_semistable)}"
        )(classify(build_open_rosary_config(6, 3).graph)),
    )
    add(
        "classify/broken-bead",
        "broken-bead closed rosary is a closed elliptic chain",
        "c_semistable=true,h_semistable=false",
        lambda: (
            lambda f: f"c_semistable={fmt(f.c_semistable)},h_semistable={fmt(f.h_semistable)}"
        )(classify(build_broken_bead_config(5).graph)),
    )

    # --- Hilbert-Mumford indices ---------------------------------------------
    for g, r in ((5, 2), (6, 2), (6, 3), (7, 4), (8, 5)):
        if r % 2 == 0:
            expected = (
                f"mu2=0 ws2={28*g-28} avg2={28*g-28} mu3=0 ws3={66*g-66} avg3={66*g-66}"
            )
        else:
            expected = (
                f"mu2=-1 ws2={28*g-41} avg2={28*g-42} mu3=-2 ws3={66*g-97} avg3={66*g-99}"
            )
        add(
            f"index/open-rosary-g{g}-r{r}",
            f"open rosary (g={g}, r={r}): degree 2 and 3 indices",
            expected,
            (lambda g=g, r=r: _mu_pair(
                index,
                build_open_rosary_config(g, r),
                canonical_1ps(build_open_rosary_config(g, r)),
            )),
        )
    for r in (4, 6):
        add(
            f"index/closed-rosary-r{r}",
            f"closed rosary r={r}: strictly semistable, counts 7r and 11r",
            f"mu2=0 mu3=0 std2={7*r} std3={11*r} init2={(9*r*r-11*r)//2}",
            (lambda r=r: (
                lambda cfg, rho: (
                    lambda i2, i3: f"mu2={fmt(i2.mu)} mu3={fmt(i3.mu)} "
                    f"std2={i2.standard_count} std3={i3.standard_count} "
                    f"init2={monomial_count(cfg.num_coordinates, 2) - i2.standard_count}"
                )(index(cfg, rho, 2), index(cfg, rho, 3))
            )(build_closed_rosary_config(r), canonical_1ps(build_closed_rosary_config(r)))),
        )
    for r in (3, 5):
        add(
            f"index/broken-bead-r{r}",
            f"broken-bead rosary r={r}: Hilbert unstable, Chow strictly semistable",
            f"mu2=-1 ws2={28*r-13} avg2={28*r-14} mu3=-2 ws3={66*r-31} avg3={66*r-33} chow=0",
            (lambda r=r: (
                lambda cfg, rho: (
                    lambda i2, i3: f"mu2={fmt(i2.mu)} ws2={fmt(i2.weight_sum)} "
                    f"avg2={fmt(i2.average)} mu3={fmt(i3.mu)} ws3={fmt(i3.weight_sum)} "
                    f"avg3={fmt(i3.average)} chow={chow_index_sign(i2.mu, i3.mu)}"
                )(index(cfg, rho, 2), index(cfg, rho, 3))
            )(build_broken_bead_config(r), canonical_1ps(build_broken_bead_config(r)))),
        )
    add(
        "index/extrapolation-unstable",
        "degree-m index of the broken-bead family is 1-m",
        "(-1, -2, -3, -4, -5)",
        lambda: fmt(tuple(extrapolate_index(-1, -2, m) for m in range(2, 7))),
    )
    add(
        "index/interpolation-degree4",
        "engine degree-4 index equals the interpolation from degrees 2 and 3",
        "true,true",
        lambda: ",".join(
            fmt(
                index(cfg, canonical_1ps(cfg), 4).mu
                == extrapolate_index(
                    index(cfg, canonical_1ps(cfg), 2).mu,
                    index(cfg, canonical_1ps(cfg), 3).mu,
                    4,
                )
            )
            for cfg in (build_closed_rosary_config(4), build_broken_bead_config(3))
        ),
    )

    # --- Chow certificates ----------------------------------------------------
    expected_chow = {
        "non-ordinary-cusp": "bound=25 threshold=24 verdict=Unstable",
        "higher-tacnode": "bound=18 threshold=16 verdict=Unstable",
        "multiple-component": "bound=18 threshold=16 verdict=Unstable",
    }
    for case, exp in expected_chow.items():
        add(
            f"chow/{case}",
            f"instability certificate: {case}",
            exp,
            (lambda case=case: (
                lambda c: f"bound={fmt(c.lower_bound)} threshold={fmt(c.threshold)} verdict={c.verdict}"
            )(certify_unstable(case))),
        )
    add(
        "chow/genus-one-tacnode-tail-g5",
        "tacnodal genus-one tail, g=5: 76 > 200/3",
        "bound=76 threshold=200/3 verdict=Unstable",
        lambda: (
            lambda c: f"bound={fmt(c.lower_bound)} threshold={fmt(c.threshold)} verdict={c.verdict}"
        )(certify_unstable(GENUS_ONE_TACNODE_TAIL, 5)),
    )

    # --- basin weights ----------------------------------------------------------
    def _versal_row(cfg, rho):
        rows = []
        st = component_st_weights(cfg, rho)
        for i in range(len(cfg.graph.intersections)):
            vw = versal_weights(cfg, rho, i, st)
            rows.append(fmt(vw.parameter_weights))
        return "; ".join(rows)

    add(
        "basin/open-rosary-weights",
        "open rosary (g=7, r=4): versal weights alternate along the rosary",
        "(-1); (4, 3, 2); (-4, -3, -2); (4, 3, 2); (-4, -3, -2); (1)",
        lambda: _versal_row(
            build_open_rosary_config(7, 4), canonical_1ps(build_open_rosary_config(7, 4))
        ),
    )
    add(
        "basin/broken-bead-weights",
        "broken bead (r=5): node weight -2, tacnode weights alternate in sign",
        "(-2); (4, 3, 2); (-4, -3, -2); (4, 3, 2); (-4, -3, -2); (4, 3, 2)",
        lambda: _versal_row(
            build_broken_bead_config(5), canonical_1ps(build_broken_bead_config(5))
        ),
    )
    add(
        "basin/closed-rosary-parity",
        "closed rosary r=6: odd tacnodes smooth, even tacnodes freeze",
        "smoothable,frozen,smoothable,frozen,smoothable,frozen",
        lambda: ",".join(
            status
            for _i, _k, status in basin_membership(
                build_closed_rosary_config(6), canonical_1ps(build_closed_rosary_config(6))
            ).classifications
        ),
    )
    add(
        "basin/closed-rosary-generic",
        "generic basin member of the closed rosary r=6 is a closed weak chain of length 3",
        "true",
        lambda: fmt(
            any(
                w.closed and w.length == 3
                for w in find_weak_elliptic_chains(
                    basin_membership(
                        build_closed_rosary_config(6),
                        canonical_1ps(build_closed_rosary_config(6)),
                    ).generic
                )
            )
        ),
    )

    # --- closed orbits ------------------------------------------------------------
    add(
        "orbit/bridge-replacement",
        "ordinary elliptic bridge degenerates onto a length-two rosary",
        "beads=2 tacnodes=1 closed=true idempotent=true",
        lambda: (
            lambda star: "beads={} tacnodes={} closed={} idempotent={}".format(
                sum(1 for c in star.components if c.genus == 0),
                star.tacnode_count(),
                fmt(is_c_closed_orbit(star)),
                fmt(c_closed_orbit_rep(star) == star),
            )
        )(c_closed_orbit_rep(bridge_chain_graph([1]))),
    )
    add(
        "orbit/replacements-1",
        "length-one bridge: two generic c-semistable configurations",
        "2",
        lambda: fmt(len(enumerate_c_replacements(bridge_chain_graph([1])))),
    )
    add(
        "orbit/replacements-2",
        "length-two bridge: four generic configurations incl. C1=P1=C2",
        "count=4 has-p1-config=true",
        lambda: (
            lambda reps: "count={} has-p1-config={}".format(
                len(reps),
                fmt(
                    any(
                        len(r_.components) == 3 and r_.tacnode_count() == 2
                        for r_ in reps
                    )
                ),
            )
        )(enumerate_c_replacements(bridge_chain_graph([1, 1]))),
    )
    add(
        "orbit/closed-weak-chain",
        "closed weak elliptic chain of length 2 degenerates onto the closed rosary of length 4",
        "true",
        lambda: fmt(
            isomorphic(
                h_closed_orbit_rep(
                    CurveGraph(
                        (Component("E1", 1), Component("E2", 1)),
                        (
                            Intersection(TACNODE, (("E1", 0), ("E2", 0))),
                            Intersection(TACNODE, (("E1", 1), ("E2", 1))),
                        ),
                    )
                ),
                closed_rosary_graph(4),
            )
        ),
    )
    def _h_example1():
        g = CurveGraph(
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
        star = h_closed_orbit_rep(g)
        return "beads={} h-closed={} genus={}".format(
            sum(1 for c in star.components if c.genus == 0),
            fmt(is_h_closed_orbit(star)),
            arithmetic_genus(star),
        )

    add(
        "orbit/h-example-contraction",
        "weak chains around a rational bridge: two three-bead rosaries, middle curve contracted",
        "beads=6 h-closed=true genus=8",
        _h_example1,
    )

    # --- divisor classes ---------------------------------------------------------
    add(
        "divisor/lambda-2",
        "determinant class in degree 2: 13 lambda - delta",
        "(13, -1)",
        lambda: fmt(lambda_n(2, 10).coefficients()),
    )
    add(
        "divisor/viehweg-n2",
        "multiplication class, n=2, m=7, g=11: (m-1)(g-1)((20m-3)lambda - 2m delta)",
        "true",
        lambda: fmt(
            (
                viehweg_class(2, 7, 11)
                - (6 * 10) * DivisorClass.total(11, 137, -14)
            ).is_zero()
        ),
    )
    add(
        "divisor/slope-limit",
        "n=2 slopes approach 10 lambda - delta",
        "true",
        lambda: fmt(
            proportional(
                viehweg_class(2, 1000, 5),
                DivisorClass.total(5, Fraction(10) - Fraction(3, 2000), -1),
            )
        ),
    )
    add(
        "divisor/epsilon-10",
        "epsilon(10) = 39/1970",
        "39/1970",
        lambda: fmt(epsilon_of_m(10)),
    )
    add(
        "divisor/k-seven-tenths",
        "K + 7/10 delta is proportional to 10 lambda - delta",
        "true",
        lambda: fmt(
            proportional(
                canonical_alpha_class(Fraction(7, 10), 9),
                DivisorClass.total(9, 10, -1),
            )
        ),
    )
    add(
        "divisor/moriwaki-g12",
        "decomposition of 10 lambda - delta - delta_1 over the Moriwaki class, g=12",
        "identity=true positive=true",
        lambda: (
            lambda cs: f"identity=true positive={fmt(all(c > 0 for c in cs))}"
        )(moriwaki_decomposition(12)),
    )

    return items


def run_paper_check(only: Optional[str] = None) -> dict:
    """Run the golden suite; returns the manifest dictionary."""
    items = sorted(build_items(), key=lambda it: it.id)
    if only:
        items = [it for it in items if it.id.startswith(only)]
    results = []
    for it in items:
        try:
            actual = it.compute()
        except Exception as exc:  # a crash is a failed check, not a crash of the suite
            actual = f"error: {exc}"
        results.append(
            {
                "id": it.id,
                "description": it.description,
                "expected": it.expected,
                "actual": actual,
                "pass": actual == it.expected,
            }
        )
    return {
        "command": "paper-check",
        "parameters": {"only": only or ""},
        "engine_version": __version__,
        "items": results,
        "checks": len(results),
        "failures": sum(1 for r_ in results if not r_["pass"]),
        "passed": all(r_["pass"] for r_ in results),
    }


def manifest_json(manifest: dict) -> str:
    return json.dumps(manifest, sort_keys=True, indent=2) + "\n"
