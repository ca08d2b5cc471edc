"""Per-link graph rebuilds of the bridge surgeries, kept as a test oracle.

Both functions build an intermediate `CurveGraph` after every link, exactly
as `basins` did before it built each output graph only once:
`enumerate_c_replacements` builds the graph with its separators and then
rebuilds it after each contracted link, and `c_closed_orbit_rep` rebuilds
after each link it replaces by a length-two rosary, so the fresh bead names
are drawn from a new editor every time.  Crossings come from
`graphs.crossing_intersections` on each intermediate graph.  There is no
replacement budget here.
"""

import itertools

from gitcurves.basins import (
    BasinError,
    _Editor,
    is_c_closed_orbit,
    pseudostable_reduction,
)
from gitcurves.graphs import (
    NODE,
    TACNODE,
    bridge_links,
    classify,
    crossing_intersections,
)


def _replace_link_with_rosary(g, link):
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
        raise BasinError("no elliptic bridges after pseudostable reduction")
    out = base
    for link in sorted(links, key=lambda s: sorted(s)):
        out = _replace_link_with_rosary(out, link)
    if not is_c_closed_orbit(out):
        raise BasinError("replacement did not reach a closed-orbit curve")
    return out


def _contract_link_to_tacnode(g, link):
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
