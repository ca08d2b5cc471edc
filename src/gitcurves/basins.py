"""Torus weights on versal deformation spaces and closed-orbit combinatorics.

A one-parameter subgroup fixing a curve acts on the versal deformation space
of each singularity; a singularity can deform inside the basin of attraction
exactly when all its parameter weights are positive.  The induced weights
follow three local rules (branch weights are read off the parametrization):

* node:     c0 has weight w1 + w2, the sum of the two branch weights;
* tacnode:  branch weights must agree (value w); (c0, c1, c2) get (4w, 3w, 2w),
            the coefficients of 1, x, x^2 in y^2 = x^4 + c2 x^2 + c1 x + c0;
* cusp:     local coordinates of weight (2u, 3u) give (a, b) weights (4u, 6u)
            in y^2 = x^3 + a x + b.

On the combinatorial side the module computes closed-orbit representatives of
strict equivalence classes: every elliptic bridge degenerates onto a
length-two open rosary, and every weak elliptic chain onto a chain of
length-three open rosaries.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from . import GitcurvesError
from .families import (
    Configuration,
    FamilyError,
    OneParamSubgroup,
    S_ZERO,
    T_ZERO,
    branch_parameter_weight,
    component_st_weights,
)
from .graphs import (
    NODE,
    TACNODE,
    Component,
    CurveGraph,
    End,
    Intersection,
    arithmetic_genus,
    bridge_links,
    classify,
    closed_rosary_graph,
    crossing_intersections,
    find_elliptic_bridges,
    find_weak_elliptic_chains,
    open_rosaries,
    _bead_cycle,
)

SMOOTHABLE = "smoothable"
FROZEN = "frozen"


class BasinError(GitcurvesError):
    pass


@dataclass(frozen=True)
class VersalWeights:
    """Torus weights on the versal parameters of one singularity."""

    singularity: object
    kind: str
    parameter_weights: tuple[Fraction, ...]

    @property
    def smoothable(self) -> bool:
        return all(w > 0 for w in self.parameter_weights)


@dataclass(frozen=True)
class BasinReport:
    """Per-singularity smoothability plus the deformed combinatorial types."""

    classifications: tuple[tuple[int, str, str], ...]
    generic: CurveGraph
    partial_smoothings: tuple[CurveGraph, ...]


def node_versal_weight(w1: Fraction, w2: Fraction) -> tuple[Fraction]:
    return (w1 + w2,)


def tacnode_versal_weights(w: Fraction) -> tuple[Fraction, Fraction, Fraction]:
    return (4 * w, 3 * w, 2 * w)


def cusp_versal_weights(u: Fraction) -> tuple[Fraction, Fraction]:
    return (4 * u, 6 * u)


def versal_weights(
    config: Configuration, rho: OneParamSubgroup, intersection_index: int
) -> VersalWeights:
    """Induced torus weights at one intersection of a parametrized configuration."""
    try:
        st = component_st_weights(config, rho)
        w0 = branch_parameter_weight(config, rho, intersection_index, 0, st)
        w1 = branch_parameter_weight(config, rho, intersection_index, 1, st)
    except FamilyError as exc:
        raise BasinError(str(exc)) from exc
    x = config.graph.intersections[intersection_index]
    if x.kind == NODE:
        return VersalWeights(intersection_index, NODE, node_versal_weight(w0, w1))
    if w0 != w1:
        raise BasinError(
            f"incompatible action at tacnode {intersection_index}: branch weights {w0} != {w1}"
        )
    return VersalWeights(intersection_index, TACNODE, tacnode_versal_weights(w0))


def cusp_versal_weights_at(
    config: Configuration, rho: OneParamSubgroup, component: str, point: str
) -> VersalWeights:
    """Weights on (a, b) for a cusp sitting at a chart point of a component."""
    try:
        st = component_st_weights(config, rho)
    except FamilyError as exc:
        raise BasinError(str(exc)) from exc
    ws, wt = st[component]
    if point == T_ZERO:
        u = wt - ws
    elif point == S_ZERO:
        u = ws - wt
    else:
        raise BasinError(f"bad chart point {point!r}")
    return VersalWeights((component, point), "cusp", cusp_versal_weights(u))


# ---------------------------------------------------------------------------
# graph surgery
# ---------------------------------------------------------------------------


class _Editor:
    """Mutable scratch copy of a curve graph with deterministic fresh names."""

    def __init__(self, g: CurveGraph):
        self.components: dict[str, Component] = {c.id: c for c in g.components}
        self.intersections: list[Optional[list]] = [
            [x.kind, [list(x.ends[0]), list(x.ends[1])]] for x in g.intersections
        ]
        self._fresh = 0

    def fresh_id(self, stem: str = "Q") -> str:
        while True:
            cid = f"{stem}{self._fresh}"
            self._fresh += 1
            if cid not in self.components:
                return cid

    def add_component(self, cid: str, genus: int = 0, cusps: int = 0) -> None:
        self.components[cid] = Component(cid, genus, cusps)

    def add_intersection(self, kind: str, a: End, b: End) -> int:
        self.intersections.append([kind, [list(a), list(b)]])
        return len(self.intersections) - 1

    def drop_intersection(self, idx: int) -> None:
        self.intersections[idx] = None

    def live(self) -> list[tuple[int, list]]:
        return [(i, x) for i, x in enumerate(self.intersections) if x is not None]

    def remove_components(self, cids: Iterable[str]) -> None:
        cids = set(cids)
        for i, x in self.live():
            if x[1][0][0] in cids and x[1][1][0] in cids:
                self.drop_intersection(i)
            elif x[1][0][0] in cids or x[1][1][0] in cids:
                raise BasinError("removing components with live outward branches")
        for cid in cids:
            del self.components[cid]

    def build(self) -> CurveGraph:
        # renumber slots per component for uniqueness
        counter: dict[str, int] = {}
        xs = []
        for _i, x in self.live():
            ends = []
            for cid, _slot in x[1]:
                counter[cid] = counter.get(cid, 0)
                ends.append((cid, counter[cid]))
                counter[cid] += 1
            xs.append(Intersection(x[0], (ends[0], ends[1])))
        comps = tuple(sorted(self.components.values(), key=lambda c: c.id))
        return CurveGraph(comps, tuple(xs))


def smooth_singularities(g: CurveGraph, indices: Iterable[int]) -> CurveGraph:
    """Deform away the given singularities, merging components as needed.

    Genus bookkeeping preserves the arithmetic genus: a merged component gets
    the sum of constituent genera plus the delta of smoothed internal
    singularities minus (number of constituents - 1); cusps are carried over.
    """
    indices = set(indices)
    if not indices:
        return g
    parent: dict[str, str] = {c.id: c.id for c in g.components}

    def find(a: str) -> str:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def union(a: str, b: str) -> None:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)

    for i in indices:
        a, b = g.intersections[i].components()
        union(a, b)
    classes: dict[str, list[str]] = {}
    for c in g.components:
        classes.setdefault(find(c.id), []).append(c.id)

    ed = _Editor(g)
    ed.components = {}
    for root, members in classes.items():
        genus = sum(g.component(m).genus for m in members)
        cusps = sum(g.component(m).cusps for m in members)
        internal = sum(
            g.intersections[i].delta
            for i in indices
            if find(g.intersections[i].components()[0]) == root
        )
        ed.add_component(root, genus + internal - (len(members) - 1), cusps)
    for i in indices:
        ed.drop_intersection(i)
    for _i, x in ed.live():
        for end in x[1]:
            end[0] = find(end[0])
    return ed.build()


def basin_membership(config: Configuration, rho: OneParamSubgroup) -> BasinReport:
    """Classify every singularity and emit the deformed combinatorial types.

    The generic member smooths every smoothable singularity; the sublattice
    lists one graph per subset of smoothable singularities (the identity and
    the generic member included).  A weight vector acting trivially on all
    versal parameters leaves everything frozen: the basin is the fixed locus.
    """
    cls = []
    smoothable = []
    for i in range(len(config.graph.intersections)):
        vw = versal_weights(config, rho, i)
        status = SMOOTHABLE if vw.smoothable else FROZEN
        cls.append((i, vw.kind, status))
        if vw.smoothable:
            smoothable.append(i)
    generic = smooth_singularities(config.graph, smoothable)
    partial = []
    for k in range(len(smoothable) + 1):
        for sub in itertools.combinations(smoothable, k):
            partial.append(smooth_singularities(config.graph, sub))
    return BasinReport(tuple(cls), generic, tuple(partial))


# ---------------------------------------------------------------------------
# product subgroups on curves made of length-two rosaries
# ---------------------------------------------------------------------------


def rosary_product_weights(
    g: CurveGraph, exponents: Sequence[int]
) -> list[tuple[int, str, Fraction]]:
    """Versal c0-weights under a product of per-rosary subgroups.

    The i-th generator is normalized to act with weight vector (4, 3, 2) on
    the versal parameters of the tacnode of the i-th open rosary (ordered as
    returned by `open_rosaries`).  Under the product with exponents e_i the
    tacnode of rosary i gets 4*e_i (reported as its leading weight), a node
    on a single rosary gets -e_i, and a node joining rosaries i and j gets
    -(e_i + e_j).
    """
    rosaries = [r for r in open_rosaries(g) if r.length == 2]
    if len(exponents) != len(rosaries):
        raise BasinError(
            f"{len(rosaries)} length-two rosaries but {len(exponents)} exponents"
        )
    bead_owner: dict[str, int] = {}
    for i, r in enumerate(rosaries):
        for b in r.beads:
            bead_owner[b] = i
    out = []
    for idx, x in enumerate(g.intersections):
        a, b = x.components()
        owners = [bead_owner.get(c) for c in (a, b)]
        if x.kind == TACNODE:
            if owners[0] is None or owners[0] != owners[1]:
                raise BasinError(f"tacnode {idx} is not inside a length-two rosary")
            out.append((idx, TACNODE, Fraction(4 * exponents[owners[0]])))
        else:
            w = Fraction(0)
            for o in owners:
                if o is not None:
                    w -= exponents[o]
            out.append((idx, NODE, w))
    return out


def product_basin_generic(g: CurveGraph, signs: Sequence[int]) -> CurveGraph:
    """Generic basin member for a sign pattern on the per-rosary exponents.

    Positive sign: the rosary's tacnode is smoothed.  Negative sign (taken
    with large absolute value): the tacnode stays and every node on that
    rosary is smoothed instead.
    """
    rosaries = [r for r in open_rosaries(g) if r.length == 2]
    if len(signs) != len(rosaries):
        raise BasinError("one sign per length-two rosary required")
    if any(s == 0 for s in signs):
        raise BasinError("signs must be nonzero")
    bead_owner: dict[str, int] = {}
    for i, r in enumerate(rosaries):
        for b in r.beads:
            bead_owner[b] = i
    smooth = []
    for idx, x in enumerate(g.intersections):
        owners = [bead_owner.get(c) for c in x.components()]
        if x.kind == TACNODE:
            if owners[0] is not None and signs[owners[0]] > 0:
                smooth.append(idx)
        else:
            if any(o is not None and signs[o] < 0 for o in owners):
                smooth.append(idx)
    return smooth_singularities(g, smooth)


# ---------------------------------------------------------------------------
# closed-orbit predicates and representatives
# ---------------------------------------------------------------------------


def _rosary_chains(g: CurveGraph, length: int) -> list[frozenset[str]]:
    """Component sets of maximal chains of open rosaries of the given length,
    where consecutive rosaries share an end intersection (a node)."""
    runs = [r for r in open_rosaries(g) if r.length == length]
    parent = list(range(len(runs)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i, j in itertools.combinations(range(len(runs)), 2):
        if set(runs[i].ends) & set(runs[j].ends):
            parent[max(find(i), find(j))] = min(find(i), find(j))
    chains: dict[int, set[str]] = {}
    for i, r in enumerate(runs):
        chains.setdefault(find(i), set()).update(r.beads)
    return [frozenset(v) for v in chains.values()]


def is_c_closed_orbit(g: CurveGraph) -> bool:
    """Closed-orbit test on the Chow side.

    True for c-semistable curves in which every tacnode sits in an open
    rosary, every open rosary has length two, and there are no elliptic
    bridges besides those rosaries.  c-stable curves qualify vacuously.
    """
    flags = classify(g)
    if not flags.c_semistable:
        return False
    rosaries = [r for r in open_rosaries(g) if r.length >= 2]
    if any(r.length != 2 for r in rosaries):
        return False
    rosary_comps = [frozenset(r.beads) for r in rosaries]
    covered = frozenset().union(*rosary_comps) if rosary_comps else frozenset()
    for x in g.intersections:
        if x.kind == TACNODE:
            a, b = x.components()
            if not any(a in rc and b in rc for rc in rosary_comps):
                return False
    for bridge in find_elliptic_bridges(g):
        if bridge not in rosary_comps:
            return False
    return True


def is_h_closed_orbit(g: CurveGraph) -> bool:
    """Closed-orbit test on the Hilbert side.

    True for h-semistable curves that are an unbroken closed rosary of odd
    genus, or in which every weak elliptic chain is contained in a chain of
    length-three open rosaries.  h-stable curves qualify vacuously.
    """
    flags = classify(g)
    if not flags.h_semistable:
        return False
    cycle = _bead_cycle(g)
    if cycle is not None:
        _order, junctions = cycle
        if all(g.intersections[i].kind == TACNODE for i in junctions):
            if arithmetic_genus(g) % 2 == 1:
                return True
            # even genus: the unbroken closed rosary admits no weak chains at
            # all (it is h-stable), so fall through to the vacuous test
    if arithmetic_genus(g) < 3:
        return True
    chains = _rosary_chains(g, 3)
    for w in find_weak_elliptic_chains(g):
        comps = frozenset(itertools.chain.from_iterable(w.blocks))
        if not any(comps <= chain for chain in chains):
            return False
    return True


def _contract_two_node_rationals(g: CurveGraph) -> CurveGraph:
    """Repeatedly contract smooth rational components meeting exactly two nodes."""
    while True:
        target = None
        for c in sorted(g.components, key=lambda c: c.id):
            if c.genus != 0 or c.cusps != 0:
                continue
            inc = g.incident_ends(c.id)
            if len(inc) != 2:
                continue
            if any(g.intersections[i].kind != NODE for i, _ in inc):
                continue
            if any(
                g.intersections[i].ends[0][0] == g.intersections[i].ends[1][0]
                for i, _ in inc
            ):
                continue
            target = (c.id, inc)
            break
        if target is None:
            return g
        cid, inc = target
        ed = _Editor(g)
        (i1, j1), (i2, j2) = inc
        outer1 = ed.intersections[i1][1][1 - j1]
        outer2 = ed.intersections[i2][1][1 - j2]
        ed.drop_intersection(i1)
        ed.drop_intersection(i2)
        ed.remove_components((cid,))
        ed.add_intersection(NODE, tuple(outer1), tuple(outer2))
        g = ed.build()


def pseudostable_reduction(g: CurveGraph) -> CurveGraph:
    """Replace every tacnode with a genus-one bridge, then stabilize.

    The inserted genus-one component meets each former branch in a node;
    rational components left with only two nodal contacts are contracted.
    """
    ed = _Editor(g)
    for i, x in list(ed.live()):
        if x[0] != TACNODE:
            continue
        e0, e1 = x[1]
        eid = ed.fresh_id("E")
        ed.add_component(eid, genus=1)
        ed.drop_intersection(i)
        ed.add_intersection(NODE, tuple(e0), (eid, 0))
        ed.add_intersection(NODE, (eid, 1), tuple(e1))
    return _contract_two_node_rationals(ed.build())


def _replace_link_with_rosary(g: CurveGraph, link: frozenset[str]) -> CurveGraph:
    """Swap one elliptic-bridge link for a length-two open rosary."""
    cross = sorted(crossing_intersections(g, link))
    if len(cross) != 2:
        raise BasinError("bridge link must meet the rest in exactly two nodes")
    ed = _Editor(g)
    b1, b2 = ed.fresh_id("R"), ed.fresh_id("R")
    ed.add_component(b1)
    ed.add_component(b2)
    for (idx, inside_end), bead in zip(cross, (b1, b2)):
        ed.intersections[idx][1][inside_end] = [bead, 9]
    ed.remove_components(link)
    ed.add_intersection(TACNODE, (b1, 8), (b2, 8))
    return ed.build()


def c_closed_orbit_rep(g: CurveGraph) -> CurveGraph:
    """The closed-orbit curve equivalent to a strictly c-semistable curve.

    Tacnodal input is first reduced to its pseudostable model; every bridge
    link is then replaced by a length-two open rosary.  Idempotent.
    """
    flags = classify(g)
    if not flags.c_semistable or flags.c_stable:
        raise BasinError("c-stable or unstable input")
    if is_c_closed_orbit(g):
        return g
    base = g
    if any(x.kind == TACNODE for x in g.intersections):
        base = pseudostable_reduction(g)
    links = bridge_links(base)
    if not links:
        raise BasinError("no elliptic bridges after pseudostable reduction")
    out = base
    for link in sorted(links, key=lambda s: sorted(s)):
        out = _replace_link_with_rosary(out, link)
    if not is_c_closed_orbit(out):
        raise BasinError("replacement did not reach a closed-orbit curve")
    return out


def _maximal_weak_chains(g: CurveGraph):
    """Disjoint maximal weak elliptic chains, greedily by lowest component id.

    Maximal chains may overlap (a rosary of odd length >= 5 carries one from
    each end); ties are broken toward the chain containing the smallest
    component id, overlapping candidates are dropped, and the leftover
    components are handled by the later contraction pass.  Any maximal
    choice yields an isomorphic representative.
    """
    weak = [w for w in find_weak_elliptic_chains(g) if not w.closed]
    by_comps: dict[frozenset[str], list] = {}
    for w in weak:
        comps = frozenset(itertools.chain.from_iterable(w.blocks))
        by_comps.setdefault(comps, []).append(w)
    maximal = [
        comps for comps in by_comps if not any(comps < other for other in by_comps)
    ]
    chosen = []
    taken: set[str] = set()
    for comps in sorted(maximal, key=lambda s: sorted(s)):
        if comps & taken:
            continue
        recs = by_comps[comps]
        recs.sort(key=lambda w: (-w.length, w.blocks))
        chosen.append(recs[0])
        taken |= comps
    return chosen


def _apply_weak_chain_replacement(ed: _Editor, record) -> None:
    """Swap a weak elliptic chain of length l for a chain of l three-bead
    rosaries inside the editor (intersection indices stay those of the
    original graph, so several replacements compose)."""
    comps = frozenset(itertools.chain.from_iterable(record.blocks))
    tac_end, node_end = record.ends
    beads: list[str] = []
    for _ in range(3 * record.length):
        bid = ed.fresh_id("R")
        ed.add_component(bid)
        beads.append(bid)
    for k in range(record.length):
        base = 3 * k
        ed.add_intersection(TACNODE, (beads[base], 1), (beads[base + 1], 0))
        ed.add_intersection(TACNODE, (beads[base + 1], 1), (beads[base + 2], 0))
        if k + 1 < record.length:
            ed.add_intersection(NODE, (beads[base + 2], 2), (beads[base + 3], 2))
    # the nodal attachment keeps its kind; the tacnodal attachment becomes a node
    for idx, bead in ((node_end, beads[0]), (tac_end, beads[-1])):
        x = ed.intersections[idx]
        inside = 0 if x[1][0][0] in comps else 1
        x[1][inside] = [bead, 7]
        x[0] = NODE
    ed.remove_components(comps)


def h_closed_orbit_rep(g: CurveGraph) -> CurveGraph:
    """The closed-orbit curve equivalent to a strictly h-semistable curve.

    A closed weak elliptic chain of length r becomes the closed rosary of
    length 2r; otherwise each maximal weak elliptic chain of length l is
    replaced by a chain of l length-three open rosaries glued in at nodes,
    and rational components left with two nodal contacts are contracted.
    Idempotent.
    """
    flags = classify(g)
    if not flags.h_semistable or flags.h_stable:
        raise BasinError("input is not strictly h-semistable")
    if is_h_closed_orbit(g):
        return g
    weak = find_weak_elliptic_chains(g)
    closed = [w for w in weak if w.closed]
    if closed:
        r = closed[0].length
        return closed_rosary_graph(2 * r)
    ed = _Editor(g)
    for record in _maximal_weak_chains(g):
        _apply_weak_chain_replacement(ed, record)
    out = _contract_two_node_rationals(ed.build())
    if not is_h_closed_orbit(out):
        raise BasinError("replacement did not reach a closed-orbit curve")
    return out


# ---------------------------------------------------------------------------
# generic c-semistable replacements of a pseudostable curve
# ---------------------------------------------------------------------------


def _contract_link_to_tacnode(g: CurveGraph, link: frozenset[str]) -> CurveGraph:
    cross = sorted(crossing_intersections(g, link))
    if len(cross) != 2:
        raise BasinError("link must meet the rest in exactly two nodes")
    (i1, e1), (i2, e2) = cross
    ed = _Editor(g)
    outer1 = ed.intersections[i1][1][1 - e1]
    outer2 = ed.intersections[i2][1][1 - e2]
    ed.drop_intersection(i1)
    ed.drop_intersection(i2)
    ed.remove_components(link)
    ed.add_intersection(TACNODE, tuple(outer1), tuple(outer2))
    return ed.build()


def enumerate_c_replacements(g: CurveGraph) -> list[CurveGraph]:
    """Generic c-semistable degenerations of a pseudostable curve with bridges.

    One configuration per subset of the bridge links: each chosen link is
    contracted to a tacnode, with a separating rational curve inserted first
    at every node between two chosen links.  Returns exactly 2^N graphs.
    """
    flags = classify(g)
    if not flags.pseudostable:
        raise BasinError("input must be pseudostable")
    links = sorted(bridge_links(g), key=lambda s: sorted(s))
    out = []
    for k in range(len(links) + 1):
        for chosen in itertools.combinations(range(len(links)), k):
            chosen_sets = [links[i] for i in chosen]
            if not chosen_sets:
                out.append(g)
                continue
            ed = _Editor(g)
            # separate adjacent chosen links with a rational curve
            for i, x in list(ed.live()):
                if x[0] != NODE:
                    continue
                a, b = x[1][0][0], x[1][1][0]
                owners = []
                for s in chosen_sets:
                    if a in s:
                        owners.append(("a", s))
                    if b in s:
                        owners.append(("b", s))
                sides = {side for side, _ in owners}
                distinct = {frozenset(s) for _, s in owners}
                if len(sides) == 2 and len(distinct) == 2:
                    pid = ed.fresh_id("P")
                    ed.add_component(pid)
                    e0, e1 = x[1]
                    ed.drop_intersection(i)
                    ed.add_intersection(NODE, tuple(e0), (pid, 0))
                    ed.add_intersection(NODE, (pid, 1), tuple(e1))
            cur = ed.build()
            for s in chosen_sets:
                cur = _contract_link_to_tacnode(cur, s)
            out.append(cur)
    return out
