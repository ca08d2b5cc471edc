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
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from . import GitcurvesError, _Record
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
    Intersection,
    RosaryRecord,
    arithmetic_genus,
    bridge_links,
    classify,
    closed_rosary_graph,
    find_elliptic_bridges,
    find_weak_elliptic_chains,
    open_rosaries,
    _bead_walk,
)

SMOOTHABLE = "smoothable"
FROZEN = "frozen"

#: most generic replacements `enumerate_c_replacements` may return: N <= 12 bridge links
REPLACEMENT_BUDGET = 4096


class BasinError(GitcurvesError):
    pass


class VersalWeights(_Record):
    """Torus weights on the versal parameters of one singularity."""

    __slots__ = ("singularity", "kind", "parameter_weights")

    def __init__(self, singularity: object, kind: str,
                 parameter_weights: tuple[Fraction, ...]) -> None:
        self._init(singularity, kind, parameter_weights)

    @property
    def smoothable(self) -> bool:
        return all(w > 0 for w in self.parameter_weights)


class BasinReport(_Record):
    """Per-singularity smoothability plus the deformed combinatorial types."""

    __slots__ = ("classifications", "generic")

    def __init__(self, classifications: tuple[tuple[int, str, str], ...],
                 generic: CurveGraph) -> None:
        self._init(classifications, generic)


def node_versal_weight(w1: Fraction, w2: Fraction) -> tuple[Fraction]:
    return (w1 + w2,)


def tacnode_versal_weights(w: Fraction) -> tuple[Fraction, Fraction, Fraction]:
    return (4 * w, 3 * w, 2 * w)


def cusp_versal_weights(u: Fraction) -> tuple[Fraction, Fraction]:
    return (4 * u, 6 * u)


def _st_weights(
    config: Configuration, rho: OneParamSubgroup
) -> dict[str, tuple[Fraction, Fraction]]:
    """`component_st_weights`, its `FamilyError` raised as `BasinError`."""
    try:
        return component_st_weights(config, rho)
    except FamilyError as exc:
        raise BasinError(str(exc)) from exc


def versal_weights(
    config: Configuration,
    rho: OneParamSubgroup,
    intersection_index: int,
    st_weights: Optional[dict[str, tuple[Fraction, Fraction]]] = None,
) -> VersalWeights:
    """Induced torus weights at one intersection of a parametrized configuration.

    `st_weights` are the (s, t) weights of `component_st_weights`, solved
    here when not given."""
    st = _st_weights(config, rho) if st_weights is None else st_weights
    try:
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
    ws, wt = _st_weights(config, rho)[component]
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
    """Mutable scratch copy of a curve graph with deterministic fresh names.

    Each intersection is a `[kind, [component, component]]` row (None once
    dropped); slots are not kept, since `build` numbers each component's
    slots in row order.  `incident` maps every component to its live
    (intersection index, end) pairs.  Ends change only through the methods
    below, which keep that map, so no step scans every intersection.
    """

    def __init__(self, g: CurveGraph):
        self.components: dict[str, Component] = {c.id: c for c in g.components}
        self.incident: dict[str, set[tuple[int, int]]] = {c.id: set() for c in g.components}
        self.intersections: list[Optional[list]] = []
        for x in g.intersections:
            self.add_intersection(x.kind, *x.components())
        self._fresh = 0

    def fresh_id(self, stem: str = "Q") -> str:
        while True:
            cid = f"{stem}{self._fresh}"
            self._fresh += 1
            if cid not in self.components:
                return cid

    def add_component(self, cid: str, genus: int = 0, cusps: int = 0) -> None:
        self.components[cid] = Component(cid, genus, cusps)
        self.incident[cid] = set()

    def add_intersection(self, kind: str, a: str, b: str) -> int:
        idx = len(self.intersections)
        self.intersections.append([kind, [a, b]])
        self.incident[a].add((idx, 0))
        self.incident[b].add((idx, 1))
        return idx

    def drop_intersection(self, idx: int) -> None:
        for j, cid in enumerate(self.intersections[idx][1]):
            self.incident[cid].discard((idx, j))
        self.intersections[idx] = None

    def move_end(self, idx: int, j: int, cid: str) -> None:
        """Put end `j` of intersection `idx` on component `cid`."""
        ends = self.intersections[idx][1]
        self.incident[ends[j]].discard((idx, j))
        ends[j] = cid
        self.incident[cid].add((idx, j))

    def two_crossings(self, sub: frozenset[str], error: str) -> list[tuple[int, int]]:
        """(index, end inside `sub`) of the live intersections leaving `sub`,
        in index order; BasinError(`error`) unless there are exactly two."""
        out = sorted(
            (i, j)
            for cid in sub
            for i, j in self.incident[cid]
            if self.intersections[i][1][1 - j] not in sub
        )
        if len(out) != 2:
            raise BasinError(error)
        return out

    def remove_components(self, cids: Iterable[str]) -> None:
        cids = set(cids)
        pairs = [p for cid in cids for p in self.incident[cid]]
        if any(self.intersections[i][1][1 - j] not in cids for i, j in pairs):
            raise BasinError("removing components with live outward branches")
        for i in {i for i, _j in pairs}:
            self.drop_intersection(i)
        for cid in cids:
            del self.components[cid], self.incident[cid]

    def build(self) -> CurveGraph:
        rows = [(x[0], *x[1]) for x in self.intersections if x is not None]
        comps = tuple(sorted(self.components.values(), key=lambda c: c.id))
        return CurveGraph(comps, _numbered(rows, {}))


def _numbered(
    rows: Iterable[tuple[str, str, str]], shared: dict[tuple, Intersection]
) -> tuple[Intersection, ...]:
    """Intersections of (kind, component, component) rows, with each
    component's slots numbered in row order; equal intersections are taken
    from `shared`, or added to it."""
    count: dict[str, int] = {}
    xs = []
    for kind, c0, c1 in rows:
        s0 = count.get(c0, 0)
        count[c0] = s0 + 1
        s1 = count.get(c1, 0)
        count[c1] = s1 + 1
        key = (kind, c0, s0, c1, s1)
        x = shared.get(key)
        if x is None:
            x = shared[key] = Intersection(kind, ((c0, s0), (c1, s1)))
        xs.append(x)
    return tuple(xs)


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

    comps = []
    for root, members in classes.items():
        genus = sum(g.component(m).genus for m in members)
        cusps = sum(g.component(m).cusps for m in members)
        internal = sum(
            g.intersections[i].delta
            for i in indices
            if find(g.intersections[i].components()[0]) == root
        )
        comps.append(Component(root, genus + internal - (len(members) - 1), cusps))
    xs = enumerate(g.intersections)
    rows = [(x.kind, *map(find, x.components())) for i, x in xs if i not in indices]
    return CurveGraph(tuple(sorted(comps, key=lambda c: c.id)), _numbered(rows, {}))


def basin_membership(config: Configuration, rho: OneParamSubgroup) -> BasinReport:
    """Classify every singularity and emit the generic member of the basin.

    The generic member smooths every smoothable singularity.  Each subset of
    the smoothable singularities gives one partial smoothing,
    `smooth_singularities(config.graph, subset)`; only the generic one is
    built here.  A weight vector acting trivially on all versal parameters
    leaves everything frozen: the basin is the fixed locus.
    """
    cls = []
    smoothable = []
    st = _st_weights(config, rho)
    for i in range(len(config.graph.intersections)):
        vw = versal_weights(config, rho, i, st)
        status = SMOOTHABLE if vw.smoothable else FROZEN
        cls.append((i, vw.kind, status))
        if vw.smoothable:
            smoothable.append(i)
    return BasinReport(tuple(cls), smooth_singularities(config.graph, smoothable))


# ---------------------------------------------------------------------------
# product subgroups on curves made of length-two rosaries
# ---------------------------------------------------------------------------


def _rosary_owners(g: CurveGraph) -> tuple[int, dict[str, int]]:
    """The number of length-two open rosaries, and bead -> the index of its
    rosary among them, in `open_rosaries` order."""
    rosaries = [r for r in open_rosaries(g) if r.length == 2]
    return len(rosaries), {b: i for i, r in enumerate(rosaries) for b in r.beads}


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
    count, bead_owner = _rosary_owners(g)
    if len(exponents) != count:
        raise BasinError(f"{count} length-two rosaries but {len(exponents)} exponents")
    out = []
    for idx, x in enumerate(g.intersections):
        owners = [bead_owner.get(c) for c in x.components()]
        if x.kind == TACNODE:
            if owners[0] is None or owners[0] != owners[1]:
                raise BasinError(f"tacnode {idx} is not inside a length-two rosary")
            out.append((idx, TACNODE, Fraction(4 * exponents[owners[0]])))
        else:
            out.append((idx, NODE, -Fraction(sum(exponents[o] for o in owners if o is not None))))
    return out


def product_basin_generic(g: CurveGraph, signs: Sequence[int]) -> CurveGraph:
    """Generic basin member for a sign pattern on the per-rosary exponents.

    Positive sign: the rosary's tacnode is smoothed.  Negative sign (taken
    with large absolute value): the tacnode stays and every node on that
    rosary is smoothed instead.
    """
    count, bead_owner = _rosary_owners(g)
    if len(signs) != count:
        raise BasinError("one sign per length-two rosary required")
    if any(s == 0 for s in signs):
        raise BasinError("signs must be nonzero")
    smooth = []
    for idx, x in enumerate(g.intersections):
        owners = [bead_owner.get(c) for c in x.components()]
        if x.kind == TACNODE:
            if owners[0] is not None and signs[owners[0]] > 0:
                smooth.append(idx)
        elif any(o is not None and signs[o] < 0 for o in owners):
            smooth.append(idx)
    return smooth_singularities(g, smooth)


# ---------------------------------------------------------------------------
# closed-orbit predicates and representatives
# ---------------------------------------------------------------------------


def _rosary_chains(runs: Iterable[RosaryRecord], length: int) -> list[frozenset[str]]:
    """Component sets of maximal chains of the open rosaries of the given
    length among `runs`, where consecutive rosaries share an end
    intersection (a node); runs are joined through a map from end to run."""
    runs = [r for r in runs if r.length == length]
    parent = list(range(len(runs)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    first: dict[int, int] = {}
    for i, r in enumerate(runs):
        for end in r.ends:
            j = find(first.setdefault(end, i))
            parent[max(find(i), j)] = min(find(i), j)
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
    owner = {b: k for k, r in enumerate(rosaries) for b in r.beads}
    tacnodes = [x.components() for x in g.intersections if x.kind == TACNODE]
    if any(a not in owner or owner[a] != owner.get(b) for a, b in tacnodes):
        return False
    beads = {frozenset(r.beads) for r in rosaries}
    return all(bridge in beads for bridge in find_elliptic_bridges(g))


def is_h_closed_orbit(g: CurveGraph) -> bool:
    """Closed-orbit test on the Hilbert side.

    True for h-semistable curves that are an unbroken closed rosary of odd
    genus, or in which every weak elliptic chain is contained in a chain of
    length-three open rosaries.  h-stable curves qualify vacuously.
    """
    flags = classify(g)
    if not flags.h_semistable:
        return False
    closed, runs = _bead_walk(g)
    # even genus: the unbroken closed rosary admits no weak chains at all (it
    # is h-stable), so it falls through to the vacuous test
    if closed is not None and not closed.broken_beads and arithmetic_genus(g) % 2 == 1:
        return True
    if arithmetic_genus(g) < 3:
        return True
    chains = _rosary_chains(runs, 3)
    for w in find_weak_elliptic_chains(g):
        comps = frozenset(itertools.chain.from_iterable(w.blocks))
        if not any(comps <= chain for chain in chains):
            return False
    return True


def _contract_two_node_rationals(ed: _Editor) -> None:
    """Contract, least id first, every smooth rational component whose two
    branches are nodes on distinct intersections, joining its neighbours by
    a new node.  A contraction never makes another component qualify, so one
    pass in id order takes the least qualifying id at every step."""
    for cid in sorted(ed.components):
        c = ed.components[cid]
        inc = sorted(ed.incident[cid])
        if c.genus or c.cusps or len(inc) != 2 or inc[0][0] == inc[1][0]:
            continue
        (i1, j1), (i2, j2) = inc
        x1, x2 = ed.intersections[i1], ed.intersections[i2]
        if x1[0] != NODE or x2[0] != NODE:
            continue
        ed.drop_intersection(i1)
        ed.drop_intersection(i2)
        ed.remove_components((cid,))
        ed.add_intersection(NODE, x1[1][1 - j1], x2[1][1 - j2])


def pseudostable_reduction(g: CurveGraph) -> CurveGraph:
    """Replace every tacnode with a genus-one bridge, then stabilize.

    The inserted genus-one component meets each former branch in a node;
    rational components left with only two nodal contacts are contracted.
    Every step edits one `_Editor`, so the result is built once.
    """
    ed = _Editor(g)
    for i, x in enumerate(g.intersections):
        if x.kind != TACNODE:
            continue
        e0, e1 = x.components()
        eid = ed.fresh_id("E")
        ed.add_component(eid, genus=1)
        ed.drop_intersection(i)
        ed.add_intersection(NODE, e0, eid)
        ed.add_intersection(NODE, eid, e1)
    _contract_two_node_rationals(ed)
    return ed.build()


def _replace_link_with_rosary(ed: _Editor, link: frozenset[str]) -> None:
    """Swap one elliptic-bridge link for a length-two open rosary in the editor.

    Bead names restart from R0, skipping ids in use, for each link.
    """
    cross = ed.two_crossings(link, "bridge link must meet the rest in exactly two nodes")
    ed._fresh = 0
    b1, b2 = ed.fresh_id("R"), ed.fresh_id("R")
    ed.add_component(b1)
    ed.add_component(b2)
    for (idx, inside_end), bead in zip(cross, (b1, b2)):
        ed.move_end(idx, inside_end, bead)
    ed.remove_components(link)
    ed.add_intersection(TACNODE, b1, b2)


def c_closed_orbit_rep(g: CurveGraph) -> CurveGraph:
    """The closed-orbit curve equivalent to a strictly c-semistable curve.

    Tacnodal input is first reduced to its pseudostable model (one build);
    every bridge link, in order of its sorted ids, is then replaced by a
    length-two open rosary with beads named by the first free ids R0, R1,
    ..., all inside one editor, so the representative is built once.  A
    model with no bridge link (a genus-2 curve whose model is one elliptic
    component with a self-node) raises BasinError.  Idempotent.
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
        raise BasinError(
            f"genus-{arithmetic_genus(g)} curve: its pseudostable model has no "
            "elliptic bridge to replace"
        )
    ed = _Editor(base)
    for link in sorted(links, key=lambda s: sorted(s)):
        _replace_link_with_rosary(ed, link)
    out = ed.build()
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
        ed.add_intersection(TACNODE, beads[base], beads[base + 1])
        ed.add_intersection(TACNODE, beads[base + 1], beads[base + 2])
        if k + 1 < record.length:
            ed.add_intersection(NODE, beads[base + 2], beads[base + 3])
    # the nodal attachment keeps its kind; the tacnodal attachment becomes a node
    for idx, bead in ((node_end, beads[0]), (tac_end, beads[-1])):
        x = ed.intersections[idx]
        ed.move_end(idx, 0 if x[1][0] in comps else 1, bead)
        x[0] = NODE
    ed.remove_components(comps)


def h_closed_orbit_rep(g: CurveGraph) -> CurveGraph:
    """The closed-orbit curve equivalent to a strictly h-semistable curve.

    A closed weak elliptic chain of length r becomes the closed rosary of
    length 2r; otherwise each maximal weak elliptic chain of length l is
    replaced by a chain of l length-three open rosaries glued in at nodes,
    and rational components left with two nodal contacts are contracted,
    all inside one editor, so the representative is built once.  Idempotent.
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
    _contract_two_node_rationals(ed)
    out = ed.build()
    if not is_h_closed_orbit(out):
        raise BasinError("replacement did not reach a closed-orbit curve")
    return out


# ---------------------------------------------------------------------------
# generic c-semistable replacements of a pseudostable curve
# ---------------------------------------------------------------------------


def enumerate_c_replacements(g: CurveGraph) -> list[CurveGraph]:
    """Generic c-semistable degenerations of a pseudostable curve with bridges.

    One configuration per subset of the N bridge links: each chosen link is
    contracted to a tacnode, with a separating rational curve P<i> inserted
    first at every node between two chosen links.  The input is analysed
    once (the link owning each component, and each intersection's ends and
    their owners); each configuration is then built in one pass over the
    input's intersections.  Returns exactly 2^N graphs, in the order of
    their subsets: by size, then lexicographically over the links sorted by
    their sorted ids, so the first entry is `g` itself.  More than
    `REPLACEMENT_BUDGET` of them raises BasinError before any is built.
    """
    flags = classify(g)
    if not flags.pseudostable:
        raise BasinError("input must be pseudostable")
    links = sorted(bridge_links(g), key=lambda s: sorted(s))
    if 2 ** len(links) > REPLACEMENT_BUDGET:
        raise BasinError(
            f"{len(links)} bridge links give {2 ** len(links)} replacements; "
            f"budget {REPLACEMENT_BUDGET}"
        )
    owner = {cid: n for n, link in enumerate(links) for cid in link}
    # (kind, end components, their owner links); a bridge link's crossings are nodes
    info = []
    crossings = [0] * len(links)
    between = 0
    for x in g.intersections:
        c0, c1 = x.components()
        a, b = owner.get(c0), owner.get(c1)
        info.append((x.kind, c0, c1, a, b))
        if a != b:
            for n in (a, b):
                if n is not None:
                    crossings[n] += 1
            between += a is not None and b is not None
    if any(count != 2 for count in crossings):
        raise BasinError("link must meet the rest in exactly two nodes")
    # the s-th separator of a configuration takes the s-th free name P<i>
    taken = set(g.ids())
    fresh = (f"P{i}" for i in itertools.count() if f"P{i}" not in taken)
    separators = [Component(pid, 0) for pid in itertools.islice(fresh, between)]
    shared: dict[tuple, Intersection] = {}
    out = [g]
    for k in range(1, len(links) + 1):
        for chosen in itertools.combinations(range(len(links)), k):
            picked = set(chosen)
            comps = [c for c in g.components if owner.get(c.id) not in picked]
            # outer ends of each chosen link: original crossings, then separators
            outer: dict[int, list[str]] = {n: [] for n in chosen}
            after: dict[int, list[str]] = {n: [] for n in chosen}
            kept = []
            used = 0
            for kind, c0, c1, a, b in info:
                ina, inb = a in picked, b in picked
                if not (ina or inb):
                    kept.append((kind, c0, c1))
                elif not inb:
                    outer[a].append(c1)
                elif not ina:
                    outer[b].append(c0)
                elif a != b:
                    sep = separators[used]
                    used += 1
                    comps.append(sep)
                    after[a].append(sep.id)
                    after[b].append(sep.id)
            for n in chosen:
                kept.append((TACNODE, *outer[n], *after[n]))
            comps.sort(key=lambda c: c.id)
            out.append(CurveGraph(tuple(comps), _numbered(kept, shared)))
    return out
