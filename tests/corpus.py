"""Curve graphs shared by the suites: a deterministic random corpus and
the open rosary attached to two curves."""

import random

from gitcurves.graphs import (
    NODE,
    TACNODE,
    Component,
    CurveGraph,
    Intersection,
    arithmetic_genus,
    open_rosary_graph,
)


def random_curve_graph(rng: random.Random, max_components: int = 12) -> CurveGraph:
    """One random connected curve graph of arithmetic genus >= 2."""
    while True:
        n = rng.randint(1, max_components)
        comps = []
        for i in range(n):
            genus = rng.choice([0, 0, 1, 1, 2, 3])
            cusps = rng.choice([0, 0, 0, 1, 2])
            comps.append(Component(f"c{i}", genus, cusps))
        slots = {c.id: 0 for c in comps}

        def end(cid):
            slots[cid] += 1
            return (cid, slots[cid] - 1)

        xs = []
        ids = [c.id for c in comps]
        for i in range(1, n):  # random spanning tree
            j = rng.randrange(i)
            kind = rng.choice([NODE, NODE, NODE, TACNODE])
            xs.append(Intersection(kind, (end(ids[j]), end(ids[i]))))
        extra = rng.randint(0, max(1, n // 2))
        for _ in range(extra):
            a, b = rng.choice(ids), rng.choice(ids)
            kind = rng.choice([NODE, NODE, TACNODE])
            xs.append(Intersection(kind, (end(a), end(b))))
        g = CurveGraph(tuple(comps), tuple(xs))
        if arithmetic_genus(g) >= 2:
            return g


def corpus(seed: int, size: int, max_components: int = 12) -> list[CurveGraph]:
    rng = random.Random(seed)
    return [random_curve_graph(rng, max_components) for _ in range(size)]


def attached_open_rosary(length: int, g_left: int = 2, g_right: int = 2) -> CurveGraph:
    """D1 - (rosary of `length` beads) - D2, nodal attachments."""
    rosary = open_rosary_graph(length)
    comps = rosary.components + (Component("D1", g_left), Component("D2", g_right))
    xs = rosary.intersections + (
        Intersection(NODE, (("D1", 0), ("L1", 0))),
        Intersection(NODE, ((f"L{length}", 1), ("D2", 0))),
    )
    return CurveGraph(comps, xs)
