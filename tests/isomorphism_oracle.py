"""The backtracking isomorphism test that `graphs.isomorphic` replaced,
kept as a test oracle.

It walks `a`'s components in sorted id order and, for each, tries every
unused component of `b`.  It builds a component's profile again, with
`CurveGraph.component` and `incident_ends`, for every candidate pair, and
`edge_multiset` rescans every intersection of both graphs at each step.
"""

from gitcurves.graphs import CurveGraph


def isomorphic(a: CurveGraph, b: CurveGraph) -> bool:
    """Decorated-graph isomorphism (backtracking; intended for small graphs)."""
    if len(a.components) != len(b.components):
        return False
    if len(a.intersections) != len(b.intersections):
        return False

    def profile(g: CurveGraph, cid: str) -> tuple:
        c = g.component(cid)
        kinds = sorted(
            g.intersections[i].kind for i, _ in g.incident_ends(cid)
        )
        return (c.genus, c.cusps, tuple(kinds))

    if sorted(profile(a, c.id) for c in a.components) != sorted(
        profile(b, c.id) for c in b.components
    ):
        return False

    def edge_multiset(mapping: dict[str, str]) -> bool:
        # verify all intersections between mapped components correspond
        mapped = set(mapping)
        want: dict[tuple, int] = {}
        for x in a.intersections:
            ca, cb = x.components()
            if ca in mapped and cb in mapped:
                key = (x.kind, tuple(sorted((mapping[ca], mapping[cb]))))
                want[key] = want.get(key, 0) + 1
        have: dict[tuple, int] = {}
        img = set(mapping.values())
        for x in b.intersections:
            ca, cb = x.components()
            if ca in img and cb in img:
                key = (x.kind, tuple(sorted((ca, cb))))
                have[key] = have.get(key, 0) + 1
        return want == have

    a_ids = sorted(c.id for c in a.components)
    b_ids = sorted(c.id for c in b.components)

    def backtrack(i: int, mapping: dict[str, str], used: set[str]) -> bool:
        if i == len(a_ids):
            return True
        ca = a_ids[i]
        for cb in b_ids:
            if cb in used or profile(a, ca) != profile(b, cb):
                continue
            mapping[ca] = cb
            used.add(cb)
            if edge_multiset(mapping) and backtrack(i + 1, mapping, used):
                return True
            del mapping[ca]
            used.remove(cb)
        return False

    return backtrack(0, {}, set())
