"""Per-step rebuilds of the basins surgeries and the separate bead walks,
kept as test oracles.

`Editor` is the scratch copy `basins` used before its editor kept an
incidence map; every surgery here goes through it, so a bookkeeping fault
in `basins._Editor` cannot show on both sides.  Its `crossings` and
`incidence` scan every live row at each call.  `enumerate_c_replacements`
inserts the separators and then contracts the chosen links one at a time,
each from the crossings its editor has at that moment; `c_closed_orbit_rep`
builds an intermediate `CurveGraph` after each link it replaces by a
length-two rosary, as `basins` did before it built each output graph only
once, so the fresh bead names are drawn from a new editor every time and
crossings come from `graphs.crossing_intersections` on each intermediate
graph.  There is no replacement budget here.

`contract_two_node_rationals` scans every live row again after each
contraction and tests every component again; `pseudostable_reduction` and
`h_closed_orbit_rep` rest on it.  The rosary queries read three walks: the
whole-curve bead cycle, the tacnode-linked bead chains of an open curve,
and the runs between nodes of a broken cycle, all over `bead_candidates`,
which reads the components and their incident ends, not the graph's
record; the closed-orbit predicates join rosaries by comparing every pair
and test each tacnode and bridge, as sets of ids, against a list of bead
sets.

`smooth_singularities` is the per-class version: it lists each merged
class's members, looks each up with `CurveGraph.component`, and rescans
every smoothed index for each class root.
"""

import itertools
from typing import Iterable

from gitcurves.basins import BasinError, _maximal_weak_chains, _numbered
from gitcurves.graphs import (
    NODE,
    TACNODE,
    Component,
    CurveGraph,
    CurveGraphError,
    RosaryRecord,
    arithmetic_genus,
    bridge_links,
    classify,
    closed_rosary_graph,
    crossing_intersections,
    find_elliptic_bridges,
    find_weak_elliptic_chains,
)


def bead_candidates(g):
    """Components usable as rosary beads: smooth rational, with exactly two
    branches on two different intersections (a self-intersection puts both
    of its branches on one).  Each maps to its (intersection, end) pairs in
    index order, and the components keep their order in `g`."""
    out = {}
    for c in g.components:
        inc = g.incident_ends(c.id)
        if c.genus == 0 and c.cusps == 0 and len(inc) == 2 and inc[0][0] != inc[1][0]:
            out[c.id] = inc
    return out


def bead_cycle(g):
    """If the whole curve is a cycle of beads, return (beads in order, junctions)."""
    beads = bead_candidates(g)
    if len(beads) != len(g.components) or len(g.components) < 2:
        return None
    if not g.is_connected():
        return None
    if len(g.intersections) != len(g.components):
        return None
    start = min(beads)
    order = [start]
    visited = {start}
    junctions = []
    prev_x = None
    while True:
        cid = order[-1]
        nxt = None
        for i, _j in beads[cid]:
            if i == prev_x:
                continue
            other = [c for c in g.intersections[i].components() if c != cid]
            if not other:
                return None
            nxt = (i, other[0])
        if nxt is None:
            return None
        i, nb = nxt
        junctions.append(i)
        prev_x = i
        if nb == start:
            break
        if nb in visited:
            return None
        visited.add(nb)
        order.append(nb)
    if len(order) != len(g.components):
        return None
    return order, junctions


def open_runs(g):
    """Maximal tacnode-linked bead chains with nodal end attachments."""
    beads = bead_candidates(g)
    runs = []
    seen = set()
    for cid, inc in beads.items():
        # start only from beads that are chain ends: at most one tacnode link to a bead
        links = []
        for i, j in inc:
            other = g.intersections[i].ends[1 - j][0]
            if g.intersections[i].kind == TACNODE and other in beads:
                links.append((i, other))
        if len(links) != 1:
            continue
        chain = [cid]
        xs = []
        nxt = links[0]
        while True:
            i, other = nxt
            xs.append(i)
            chain.append(other)
            cont = [
                (k, g.intersections[k].ends[1 - j][0])
                for k, j in beads[other]
                if k != i
                and g.intersections[k].kind == TACNODE
                and g.intersections[k].ends[1 - j][0] in beads
            ]
            if not cont:
                break
            nxt = cont[0]
        if frozenset(chain) in seen:
            continue
        # end attachments must be single nodes
        end_nodes = []
        valid = True
        for end_bead in (chain[0], chain[-1]):
            outward = [(i, j) for i, j in beads[end_bead] if i not in xs]
            if len(outward) != 1 or g.intersections[outward[0][0]].kind != NODE:
                valid = False
                break
            end_nodes.append(outward[0][0])
        if not valid:
            continue
        seen.add(frozenset(chain))
        runs.append(
            RosaryRecord(closed=False, beads=tuple(chain), length=len(chain), ends=tuple(end_nodes))
        )
    return sorted(runs, key=lambda r: r.beads)


def cycle_runs(g, order, junctions):
    """Open rosaries inside a broken bead cycle: maximal runs between nodes."""
    n = len(order)
    node_pos = [k for k in range(n) if g.intersections[junctions[k]].kind == NODE]
    if not node_pos:
        return []
    runs = []
    for idx, k in enumerate(node_pos):
        nxt = node_pos[(idx + 1) % len(node_pos)]
        beads = []
        pos = (k + 1) % n
        while True:
            beads.append(order[pos])
            if pos == nxt:
                break
            pos = (pos + 1) % n
        ends = (junctions[k], junctions[nxt])
        runs.append(RosaryRecord(False, tuple(beads), len(beads), ends=tuple(sorted(ends))))
    return sorted(runs, key=lambda r: r.beads)


def find_rosaries(g):
    if not g.is_connected():
        raise CurveGraphError("disconnected")
    cycle = bead_cycle(g)
    if cycle is not None:
        order, junctions = cycle
        broken = sum(1 for i in junctions if g.intersections[i].kind == NODE)
        return [
            RosaryRecord(
                closed=True, beads=tuple(order), length=len(order) - broken, broken_beads=broken
            )
        ]
    return [r for r in open_runs(g) if r.length >= 2]


def open_rosaries(g):
    cycle = bead_cycle(g)
    if cycle is not None:
        return cycle_runs(g, *cycle)
    return open_runs(g)


def has_infinite_automorphisms(g):
    flags = classify(g)
    if not flags.c_semistable:
        raise CurveGraphError("automorphism classification requires a c-semistable curve")
    if arithmetic_genus(g) < 4:
        raise CurveGraphError("automorphism classification requires genus >= 4")
    cycle = bead_cycle(g)
    if cycle is not None:
        order, junctions = cycle
        broken = sum(1 for i in junctions if g.intersections[i].kind == NODE)
        if broken == 0:
            rec = RosaryRecord(True, tuple(order), len(order))
            return (arithmetic_genus(g) % 2 == 1, rec)
        runs = cycle_runs(g, order, junctions)
        long = [r for r in runs if r.length >= 2]
        return (bool(long), long[0] if long else None)
    runs = [r for r in open_runs(g) if r.length >= 2]
    return (bool(runs), runs[0] if runs else None)


def aut_torus_rank(g):
    cycle = bead_cycle(g)
    if cycle is not None:
        order, junctions = cycle
        broken = sum(1 for i in junctions if g.intersections[i].kind == NODE)
        if broken == 0:
            return 1 if arithmetic_genus(g) % 2 == 1 else 0
    if is_c_closed_orbit(g):
        return sum(1 for r in open_rosaries(g) if r.length == 2)
    if is_h_closed_orbit(g):
        return sum(1 for r in open_rosaries(g) if r.length == 3)
    raise CurveGraphError("not a closed-orbit curve")


def rosary_chains(g, length):
    runs = [r for r in open_rosaries(g) if r.length == length]
    parent = list(range(len(runs)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i, j in itertools.combinations(range(len(runs)), 2):
        if set(runs[i].ends) & set(runs[j].ends):
            parent[max(find(i), find(j))] = min(find(i), find(j))
    chains = {}
    for i, r in enumerate(runs):
        chains.setdefault(find(i), set()).update(r.beads)
    return [frozenset(v) for v in chains.values()]


def is_c_closed_orbit(g):
    flags = classify(g)
    if not flags.c_semistable:
        return False
    rosaries = [r for r in open_rosaries(g) if r.length >= 2]
    if any(r.length != 2 for r in rosaries):
        return False
    rosary_comps = [frozenset(r.beads) for r in rosaries]
    for x in g.intersections:
        if x.kind == TACNODE:
            a, b = x.components()
            if not any(a in rc and b in rc for rc in rosary_comps):
                return False
    for bridge in find_elliptic_bridges(g):
        if bridge not in rosary_comps:
            return False
    return True


def is_h_closed_orbit(g):
    flags = classify(g)
    if not flags.h_semistable:
        return False
    cycle = bead_cycle(g)
    if cycle is not None:
        _order, junctions = cycle
        if all(g.intersections[i].kind == TACNODE for i in junctions):
            if arithmetic_genus(g) % 2 == 1:
                return True
    if arithmetic_genus(g) < 3:
        return True
    chains = rosary_chains(g, 3)
    for w in find_weak_elliptic_chains(g):
        comps = frozenset(itertools.chain.from_iterable(w.blocks))
        if not any(comps <= chain for chain in chains):
            return False
    return True


class Editor:
    """The scratch copy `basins` edited before it kept an incidence map:
    each intersection is a `[kind, [[component, slot], [component, slot]]]`
    row that callers may rewrite, and `crossings` and
    `remove_components` scan every live row."""

    def __init__(self, g):
        self.components = {c.id: c for c in g.components}
        self.intersections = [
            [x.kind, [list(x.ends[0]), list(x.ends[1])]] for x in g.intersections
        ]
        self._fresh = 0

    def fresh_id(self, stem="Q"):
        while True:
            cid = f"{stem}{self._fresh}"
            self._fresh += 1
            if cid not in self.components:
                return cid

    def add_component(self, cid, genus=0, cusps=0):
        self.components[cid] = Component(cid, genus, cusps)

    def add_intersection(self, kind, a, b):
        self.intersections.append([kind, [list(a), list(b)]])
        return len(self.intersections) - 1

    def drop_intersection(self, idx):
        self.intersections[idx] = None

    def live(self):
        return [(i, x) for i, x in enumerate(self.intersections) if x is not None]

    def incidence(self):
        """Each component's (row, end) pairs, in row order."""
        inc = {cid: [] for cid in self.components}
        for i, x in self.live():
            for j, (cid, _slot) in enumerate(x[1]):
                inc[cid].append((i, j))
        return inc

    def crossings(self, cids):
        """(row, end in `cids`) of each live row with exactly one end in `cids`."""
        return [
            (i, j)
            for i, x in self.live()
            for j in (0, 1)
            if x[1][j][0] in cids and x[1][1 - j][0] not in cids
        ]

    def remove_components(self, cids):
        cids = set(cids)
        for i, x in self.live():
            if x[1][0][0] in cids and x[1][1][0] in cids:
                self.drop_intersection(i)
            elif x[1][0][0] in cids or x[1][1][0] in cids:
                raise BasinError("removing components with live outward branches")
        for cid in cids:
            del self.components[cid]

    def build(self):
        rows = [(x[0], x[1][0][0], x[1][1][0]) for _i, x in self.live()]
        comps = tuple(sorted(self.components.values(), key=lambda c: c.id))
        return CurveGraph(comps, _numbered(rows, {}))


def apply_weak_chain_replacement(ed, record):
    comps = frozenset(itertools.chain.from_iterable(record.blocks))
    tac_end, node_end = record.ends
    beads = []
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


def contract_two_node_rationals(ed):
    """Contract in `ed` the least id among the smooth rational components
    meeting exactly two nodes, on distinct intersections, and scan every row
    again; repeat until none is left."""
    while True:
        incidence = ed.incidence()
        target = None
        for cid, c in sorted(ed.components.items()):
            if c.genus != 0 or c.cusps != 0:
                continue
            inc = incidence[cid]
            if len(inc) != 2:
                continue
            if any(ed.intersections[i][0] != NODE for i, _ in inc):
                continue
            if any(ed.intersections[i][1][0][0] == ed.intersections[i][1][1][0] for i, _ in inc):
                continue
            target = (cid, inc)
            break
        if target is None:
            return
        cid, inc = target
        (i1, j1), (i2, j2) = inc
        outer1 = ed.intersections[i1][1][1 - j1]
        outer2 = ed.intersections[i2][1][1 - j2]
        ed.drop_intersection(i1)
        ed.drop_intersection(i2)
        ed.remove_components((cid,))
        ed.add_intersection(NODE, tuple(outer1), tuple(outer2))


def pseudostable_reduction(g):
    ed = Editor(g)
    for i, x in list(ed.live()):
        if x[0] != TACNODE:
            continue
        e0, e1 = x[1]
        eid = ed.fresh_id("E")
        ed.add_component(eid, genus=1)
        ed.drop_intersection(i)
        ed.add_intersection(NODE, tuple(e0), (eid, 0))
        ed.add_intersection(NODE, (eid, 1), tuple(e1))
    contract_two_node_rationals(ed)
    return ed.build()


def h_closed_orbit_rep(g):
    flags = classify(g)
    if not flags.h_semistable or flags.h_stable:
        raise BasinError("input is not strictly h-semistable")
    if is_h_closed_orbit(g):
        return g
    closed = [w for w in find_weak_elliptic_chains(g) if w.closed]
    if closed:
        return closed_rosary_graph(2 * closed[0].length)
    ed = Editor(g)
    for record in _maximal_weak_chains(g):
        apply_weak_chain_replacement(ed, record)
    contract_two_node_rationals(ed)
    out = ed.build()
    if not is_h_closed_orbit(out):
        raise BasinError("replacement did not reach a closed-orbit curve")
    return out


def _replace_link_with_rosary(g, link):
    cross = sorted(crossing_intersections(g, link))
    if len(cross) != 2:
        raise BasinError("bridge link must meet the rest in exactly two nodes")
    ed = Editor(g)
    b1, b2 = ed.fresh_id("R"), ed.fresh_id("R")
    ed.add_component(b1)
    ed.add_component(b2)
    for (idx, inside_end), bead in zip(cross, (b1, b2)):
        ed.intersections[idx][1][inside_end] = [bead, 9]
    ed.remove_components(link)
    ed.add_intersection(TACNODE, (b1, 8), (b2, 8))
    return ed.build()


def c_closed_orbit_rep(g):
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
    out = base
    for link in sorted(links, key=lambda s: sorted(s)):
        out = _replace_link_with_rosary(out, link)
    if not is_c_closed_orbit(out):
        raise BasinError("replacement did not reach a closed-orbit curve")
    return out


def _contract_link_to_tacnode(ed, link):
    cross = ed.crossings(link)
    if len(cross) != 2:
        raise BasinError("link must meet the rest in exactly two nodes")
    (i1, e1), (i2, e2) = cross
    outer1 = ed.intersections[i1][1][1 - e1]
    outer2 = ed.intersections[i2][1][1 - e2]
    ed.drop_intersection(i1)
    ed.drop_intersection(i2)
    ed.remove_components(link)
    ed.add_intersection(TACNODE, tuple(outer1), tuple(outer2))


def enumerate_c_replacements(g):
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
            ed = Editor(g)
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
            for s in chosen_sets:
                _contract_link_to_tacnode(ed, s)
            out.append(ed.build())
    return out


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
