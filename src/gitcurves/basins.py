"""Torus weights on versal deformation spaces and closed-orbit combinatorics.

A one-parameter subgroup fixing a curve acts on the versal deformation space
of each singularity; a singularity can deform inside the basin of attraction
exactly when all its parameter weights are positive.  The induced weights
follow two local rules (branch weights are read off the parametrization):

* node:     c0 has weight w1 + w2, the sum of the two branch weights;
* tacnode:  branch weights must agree (value w); (c0, c1, c2) get (4w, 3w, 2w),
            the coefficients of 1, x, x^2 in y^2 = x^4 + c2 x^2 + c1 x + c0.

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
    branch_parameter_weight,
    component_st_weights,
)
from .graphs import (
    NODE,
    TACNODE,
    Component,
    CurveGraph,
    Intersection,
    arithmetic_genus,
    bridge_links,
    classify,
    closed_rosary_graph,
    find_weak_elliptic_chains,
    open_rosaries,
    _bead_walk,
    _c_closed_rosaries,
    _c_flags,
    _chain_hits,
    _graph_data,
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
    here when not given.  An out-of-range index raises BasinError."""
    xs = config.graph.intersections
    if not 0 <= intersection_index < len(xs):
        raise BasinError(f"no intersection {intersection_index} on a curve with {len(xs)}")
    st = _st_weights(config, rho) if st_weights is None else st_weights
    try:
        w0 = branch_parameter_weight(config, rho, intersection_index, 0, st)
        w1 = branch_parameter_weight(config, rho, intersection_index, 1, st)
    except FamilyError as exc:
        raise BasinError(str(exc)) from exc
    x = xs[intersection_index]
    if x.kind == NODE:
        return VersalWeights(intersection_index, NODE, node_versal_weight(w0, w1))
    if w0 != w1:
        raise BasinError(
            f"incompatible action at tacnode {intersection_index}: branch weights {w0} != {w1}"
        )
    return VersalWeights(intersection_index, TACNODE, tacnode_versal_weights(w0))


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

    def fresh_id(self, stem: str) -> str:
        while True:
            cid = f"{stem}{self._fresh}"
            self._fresh += 1
            if cid not in self.components:
                return cid

    def add_component(self, cid: str, genus: int = 0) -> None:
        self.components[cid] = Component(cid, genus)
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
    Three passes: a union over the smoothed singularities, genus and cusps
    added per class root (its least id), then the smoothed deltas.  An index
    outside `range(len(g.intersections))` raises BasinError.
    """
    indices = set(indices)
    if not indices:
        return g
    xs = g.intersections
    parent: dict[str, str] = {c.id: c.id for c in g.components}

    def find(a: str) -> str:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for i in indices:
        if not 0 <= i < len(xs):
            raise BasinError(f"no intersection {i} on a curve with {len(xs)}")
        ra, rb = map(find, xs[i].components())
        parent[max(ra, rb)] = min(ra, rb)
    totals: dict[str, list[int]] = {}  # root -> [genus, cusps]; genus starts at 1
    for c in g.components:
        t = totals.setdefault(find(c.id), [1, 0])
        t[0] += c.genus - 1
        t[1] += c.cusps
    for i in indices:
        totals[find(xs[i].components()[0])][0] += xs[i].delta
    comps = tuple(Component(root, *totals[root]) for root in sorted(totals))
    rows = [(x.kind, *map(find, x.components())) for i, x in enumerate(xs) if i not in indices]
    return CurveGraph(comps, _numbered(rows, {}))


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


def is_c_closed_orbit(g: CurveGraph) -> bool:
    """Closed-orbit test on the Chow side.

    True for c-semistable curves in which every tacnode sits in an open
    rosary, every open rosary has length two, and there are no elliptic
    bridges besides those rosaries.  c-stable curves qualify vacuously.
    The rosaries, tacnodes and bridges are compared as masks on the graph's
    record (`graphs._c_closed_rosaries`).
    """
    _dm, _pseudo, c_semistable, _c_stable, _h = _c_flags(g)
    return c_semistable and _c_closed_rosaries(g)


def is_h_closed_orbit(g: CurveGraph) -> bool:
    """Closed-orbit test on the Hilbert side.

    True for h-semistable curves that are an unbroken closed rosary of odd
    genus, or in which every weak elliptic chain is contained in a chain of
    length-three open rosaries.  h-stable curves qualify vacuously.  A weak
    chain is connected, and two beads of length-three rosaries that meet lie
    in one rosary (at its tacnode) or in two sharing an end node, so a weak
    chain lies in such a chain exactly when each of its components is a bead
    of a length-three rosary of the one `_bead_walk`.

    That is tested on the masks of the graph's record, and no chain is
    listed.  Every block of an open weak chain, and of a closed weak chain
    of length >= 2, is a table entry with exactly two crossings, so it is in
    the chain block index (`leaving`); a closed weak chain of length 1 is
    the whole curve cut at a tacnode, so the curve has genus 1 + 2 = 3.  So
    off genus 3, when every indexed block lies on the beads, no weak chain
    leaves them and nothing is walked; otherwise the weak chain search stops
    at the first chain with a block off the beads.  (The test lives here,
    not in `graphs`: that module's source sits just under 8,192 tokens, past
    which CPython's parser doubles its token array, and compiling it, as
    every process does when no bytecode is cached, peaks 0.6 MB higher.)
    """
    if not classify(g).h_semistable:
        return False
    closed, runs = _bead_walk(g)
    data = _graph_data(g)
    # even genus: the unbroken closed rosary admits no weak chains at all (it
    # is h-stable), so it falls through to the vacuous test
    if (closed is not None and not closed.broken_beads and data.genus % 2 == 1) or data.genus < 3:
        return True
    off = ~sum(1 << data.index[b] for r in runs if r.length == 3 for b in r.beads)
    if data.genus != 3 and not any(m & off for ms in data.leaving.values() for m in ms):
        return True
    return not any(b & off for _c, _w, blocks, _e in _chain_hits(g, True) for b in blocks)


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


def _link_rows(g: CurveGraph, links: list[frozenset[str]], error: str) -> tuple[dict, list]:
    """One pass over the intersections of `g` for the link surgeries: the
    owner map (component -> index of its link) and each intersection's
    (kind, end components, their owners or None).  BasinError(`error`)
    unless every link meets the rest of the curve in exactly two points."""
    owner = {cid: n for n, link in enumerate(links) for cid in link}
    rows = []
    crossings = [0] * len(links)
    for x in g.intersections:
        c0, c1 = x.components()
        a, b = owner.get(c0), owner.get(c1)
        rows.append((x.kind, c0, c1, a, b))
        if a != b:
            for n in (a, b):
                if n is not None:
                    crossings[n] += 1
    if any(count != 2 for count in crossings):
        raise BasinError(error)
    return owner, rows


def c_closed_orbit_rep(g: CurveGraph) -> CurveGraph:
    """The closed-orbit curve equivalent to a strictly c-semistable curve.

    Tacnodal input is first reduced to its pseudostable model (one build);
    every bridge link, in order of its sorted ids, is then replaced by a
    length-two open rosary whose first bead takes the link's lower-index
    crossing.  Each link's beads get the first two ids R0, R1, ... not in
    use, where the ids of the links replaced before it are free again.  The
    representative is built once, in one pass over the model's
    intersections (`_link_rows`): the rows outside the links keep their
    order, with each crossing end moved onto its bead, and one tacnode per
    link follows them.  A model with no bridge link (a genus-2 curve whose
    model is one elliptic component with a self-node) raises BasinError.
    Idempotent.
    """
    _dm, _pseudo, c_semistable, c_stable, _h = _c_flags(g)
    if not c_semistable or c_stable:
        raise BasinError("c-stable or unstable input")
    if is_c_closed_orbit(g):
        return g
    base = g
    if any(x.kind == TACNODE for x in g.intersections):
        base = pseudostable_reduction(g)
    links = bridge_links(base)  # in order of their sorted ids
    if not links:
        raise BasinError(
            f"genus-{arithmetic_genus(g)} curve: its pseudostable model has no "
            "elliptic bridge to replace"
        )
    error = "bridge link must meet the rest in exactly two nodes"
    owner, info = _link_rows(base, links, error)
    used, beads, start = set(base.ids()), [], 0  # R<i> is in use for every i < start
    for link in links:
        fresh = (f"R{i}" for i in itertools.count(start) if f"R{i}" not in used)
        pair = (next(fresh), next(fresh))
        used.difference_update(link)
        used.update(pair)
        beads.append(pair)
        # the link's ids are free again; one of them may be an R<i> below the second bead
        start = 0 if any(cid.startswith("R") for cid in link) else int(pair[1][1:]) + 1
    comps = [c for c in base.components if c.id not in owner]
    comps += [Component(bead, 0) for pair in beads for bead in pair]
    crossed = [0] * len(links)  # crossings of each link met so far
    rows = []
    for kind, c0, c1, a, b in info:
        if a is not None:
            if a == b:
                continue  # inside one link
            c0 = beads[a][crossed[a]]
            crossed[a] += 1
        if b is not None:
            c1 = beads[b][crossed[b]]
            crossed[b] += 1
        rows.append((kind, c0, c1))
    rows += [(TACNODE, *pair) for pair in beads]
    comps.sort(key=lambda c: c.id)
    out = CurveGraph(tuple(comps), _numbered(rows, {}))
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
    first at every node between two chosen links.  Returns exactly 2^N
    graphs, in the order of their subsets: by size, then lexicographically
    over the links sorted by their sorted ids, so the first entry is `g`
    itself.  More than `REPLACEMENT_BUDGET` of them raises BasinError before
    any is built.

    The links are taken apart once (`_link_rows`) into an id-sorted pool of
    components and separators, each tagged with the bit of its link or
    separator; rows tagged with the links they touch; each link's two
    crossings; and the rows between two links.  A configuration, its chosen
    links a mask, is then a filter of the rows and of the pool plus one
    tacnode row per chosen link.
    """
    _dm, pseudostable, _c_semi, _c_stable, _h = _c_flags(g)
    if not pseudostable:
        raise BasinError("input must be pseudostable")
    links = bridge_links(g)  # in order of their sorted ids
    if 2 ** len(links) > REPLACEMENT_BUDGET:
        raise BasinError(
            f"{len(links)} bridge links give {2 ** len(links)} replacements; "
            f"budget {REPLACEMENT_BUDGET}"
        )
    owner, info = _link_rows(g, links, "link must meet the rest in exactly two nodes")
    nl = len(links)
    rows = []  # ((kind, c0, c1), bits of the links it touches)
    crossings: list[list[tuple[str, int, int]]] = [[] for _ in links]
    pairs = []  # the bits of the two links of each row between two links
    for kind, c0, c1, a, b in info:
        bits = (0 if a is None else 1 << a) | (0 if b is None else 1 << b)
        rows.append(((kind, c0, c1), bits))
        if a != b:
            # each crossing is (outer end, bit of the link across or 0, the
            # row's index in `pairs`, read only when there is a link across)
            t = len(pairs)
            if a is not None and b is not None:
                pairs.append(bits)
            if a is not None:
                crossings[a].append((c1, bits ^ 1 << a, t))
            if b is not None:
                crossings[b].append((c0, bits ^ 1 << b, t))
    # the s-th separator of a configuration takes the s-th free name P<i>
    taken = set(g.ids())
    fresh = (f"P{i}" for i in itertools.count() if f"P{i}" not in taken)
    sep_ids = list(itertools.islice(fresh, len(pairs)))
    # pool entries: (component, its tag): 1 << n for a component of link n,
    # 1 << (N + s) for the s-th separator, 0 for the other components
    pool = [(c, 1 << owner[c.id] if c.id in owner else 0) for c in g.components]
    pool += [(Component(pid, 0), 1 << nl + s) for s, pid in enumerate(sep_ids)]
    pool.sort(key=lambda entry: entry[0].id)
    bit = [1 << n for n in range(nl)]
    shared: dict[tuple, Intersection] = {}
    out = [g]
    for k in range(1, nl + 1):
        for chosen in itertools.combinations(range(nl), k):
            mask = sum(map(bit.__getitem__, chosen))
            sep = dict(zip([t for t, both in enumerate(pairs) if both & mask == both], sep_ids))
            kept = [row for row, touched in rows if not touched & mask]
            for n in chosen:
                (c0, x0, t0), (c1, x1, t1) = crossings[n]
                # the outer ends in row order, then the separators
                if x0 & mask:
                    c0, c1 = (sep[t0], sep[t1]) if x1 & mask else (c1, sep[t0])
                elif x1 & mask:
                    c1 = sep[t1]
                kept.append((TACNODE, c0, c1))
            drop = mask | -1 << nl + len(sep)  # the chosen links and the unused separators
            comps = tuple([c for c, tag in pool if not tag & drop])
            out.append(CurveGraph(comps, _numbered(kept, shared)))
    return out
