"""Decorated dual graphs of projective curves and their stability predicates.

A curve is modeled by its components (with geometric genus and a count of
ordinary cusps, which are unibranch and therefore live on a single
component) together with its reducible singular points: nodes and tacnodes,
each joining two branches.  On top of this combinatorial model the module
implements the classical stability notions for genus >= 2 curves --
Deligne-Mumford stability, pseudostability, c-(semi)stability and
h-(semi)stability -- plus the subcurve searches they depend on: elliptic
tails, elliptic bridges, open/closed (weak) elliptic chains, and rosaries.

All values are immutable; every operation is a pure function of its inputs.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, Optional, Sequence

from . import GitcurvesError

NODE = "node"
TACNODE = "tacnode"

#: local contribution of a singularity to arithmetic genus
DELTA = {NODE: 1, TACNODE: 2}

#: most component subsets the subcurve search may visit on one graph
SUBCURVE_BUDGET = 200_000


class CurveGraphError(GitcurvesError):
    """Raised for malformed graphs or violated operation preconditions."""


End = tuple[str, int]


def _typed(value, kind: type, what: str):
    """A graph-document field `value` if it is a `kind`; a bool is no integer here."""
    if not isinstance(value, kind) or isinstance(value, bool):
        name = "a string" if kind is str else "an integer"
        raise CurveGraphError(f"{what} must be {name}, got {value!r}")
    return value


def _pair(value) -> list:
    """`value` if it is a two-element list: an intersection's ends or one end."""
    if not isinstance(value, list) or len(value) != 2:
        raise CurveGraphError(f"expected a two-element list, got {value!r}")
    return value


def _keys(value, *allowed: str) -> None:
    """Reject a document object with a key outside `allowed`."""
    if isinstance(value, dict):
        for key in value:
            if key not in allowed:
                raise CurveGraphError(f"unknown key {key!r} (expected {', '.join(allowed)})")


@dataclass(frozen=True)
class Component:
    """One irreducible component: geometric genus plus ordinary-cusp count."""

    id: str
    genus: int
    cusps: int = 0
    label: Optional[str] = None

    def __post_init__(self) -> None:
        if self.genus < 0 or self.cusps < 0:
            raise CurveGraphError(
                f"component {self.id!r}: genus and cusp count must be >= 0"
            )


@dataclass(frozen=True)
class Intersection:
    """A node or tacnode joining two branches, given as (component, slot) ends.

    Slots distinguish branches of the same component; an intersection whose
    two ends lie on one component is a self-node or self-tacnode.
    """

    kind: str
    ends: tuple[End, End]

    def __post_init__(self) -> None:
        if self.kind not in DELTA:
            raise CurveGraphError(f"unknown singularity kind {self.kind!r}")
        if len(self.ends) != 2:
            raise CurveGraphError("an intersection has exactly two ends")

    @property
    def delta(self) -> int:
        return DELTA[self.kind]

    def components(self) -> tuple[str, str]:
        return (self.ends[0][0], self.ends[1][0])


@dataclass(frozen=True)
class StabilityFlags:
    """Outcome of `classify`: one boolean per stability notion."""

    dm_stable: bool
    pseudostable: bool
    c_semistable: bool
    c_stable: bool
    h_semistable: bool
    h_stable: bool

    def as_dict(self) -> dict[str, bool]:
        return {
            "dm_stable": self.dm_stable,
            "pseudostable": self.pseudostable,
            "c_semistable": self.c_semistable,
            "c_stable": self.c_stable,
            "h_semistable": self.h_semistable,
            "h_stable": self.h_stable,
        }


@dataclass(frozen=True)
class CurveGraph:
    """Connected decorated dual graph of an unpointed projective curve.

    Connectivity is not enforced at construction; operations that require it
    raise `CurveGraphError("disconnected")`.  Marked points are not supported:
    a non-empty `marks` raises CurveGraphError.
    """

    components: tuple[Component, ...]
    intersections: tuple[Intersection, ...] = ()
    # always empty: perfbench/workloads.relabel still passes g.marks as a third argument
    marks: tuple[()] = ()

    def __post_init__(self) -> None:
        if self.marks:
            raise CurveGraphError("marked points are not supported")
        ids = [c.id for c in self.components]
        if len(set(ids)) != len(ids):
            raise CurveGraphError("duplicate component ids")
        known = set(ids)
        used_ends: set[End] = set()
        for x in self.intersections:
            for end in x.ends:
                cid, _slot = end
                if cid not in known:
                    raise CurveGraphError(f"intersection references unknown component {cid!r}")
                if end in used_ends:
                    raise CurveGraphError(f"branch slot {end!r} used twice")
                used_ends.add(end)

    # -- basic accessors -------------------------------------------------

    def ids(self) -> tuple[str, ...]:
        return tuple(c.id for c in self.components)

    def component(self, cid: str) -> Component:
        for c in self.components:
            if c.id == cid:
                return c
        raise CurveGraphError(f"no component {cid!r}")

    def is_connected(self) -> bool:
        data = _graph_data(self)
        return data.connected(data.all_mask)

    def incident_ends(self, cid: str) -> list[tuple[int, int]]:
        """(intersection index, end index) pairs of branches on `cid`."""
        out = []
        for i, x in enumerate(self.intersections):
            for j, (c, _slot) in enumerate(x.ends):
                if c == cid:
                    out.append((i, j))
        return out

    def tacnode_count(self) -> int:
        return sum(1 for x in self.intersections if x.kind == TACNODE)

    # -- serialization ---------------------------------------------------

    def to_dict(self) -> dict:
        comps = []
        for c in self.components:
            entry: dict = {"id": c.id, "genus": c.genus, "cusps": c.cusps}
            if c.label is not None:
                entry["label"] = c.label
            comps.append(entry)
        return {
            "components": comps,
            "intersections": [
                {"kind": x.kind, "ends": [list(e) for e in x.ends]}
                for x in self.intersections
            ],
            # kept so that saved documents, which embed this dict, still load
            "marks": [],
        }

    @staticmethod
    def from_dict(doc: dict) -> "CurveGraph":
        """Parse a `to_dict` document; a wrong shape, type or key raises CurveGraphError."""
        try:
            _keys(doc, "components", "intersections", "marks")
            comps = []
            for c in doc["components"]:
                _keys(c, "id", "genus", "cusps", "label")
                comps.append(
                    Component(
                        _typed(c["id"], str, "component id"),
                        _typed(c["genus"], int, "genus"),
                        _typed(c.get("cusps", 0), int, "cusps"),
                        None if c.get("label") is None else _typed(c["label"], str, "label"),
                    )
                )
            xs = []
            for x in doc.get("intersections", []):
                _keys(x, "kind", "ends")
                xs.append(
                    Intersection(
                        _typed(x["kind"], str, "kind"),
                        tuple(
                            (_typed(cid, str, "end component"), _typed(slot, int, "slot"))
                            for cid, slot in map(_pair, _pair(x["ends"]))
                        ),
                    )
                )
            if doc.get("marks", []) != []:
                raise CurveGraphError("marked points are not supported")
        except (KeyError, TypeError) as exc:
            raise CurveGraphError(f"malformed curve-graph document: {exc}") from exc
        return CurveGraph(tuple(comps), tuple(xs))

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @staticmethod
    def from_json(text: str) -> "CurveGraph":
        return CurveGraph.from_dict(json.loads(text))


# ---------------------------------------------------------------------------
# cached bitmask view of a graph
# ---------------------------------------------------------------------------


class _GraphData:
    """Bitmask tables for the subcurve searches."""

    __slots__ = (
        "ids",
        "index",
        "n",
        "contrib",
        "nbr",
        "end_bits",
        "deltas",
        "tacnodes",
        "all_mask",
    )

    def __init__(self, g: CurveGraph):
        self.ids = g.ids()
        self.index = {cid: i for i, cid in enumerate(self.ids)}
        self.n = len(self.ids)
        self.contrib = [c.genus + c.cusps for c in g.components]
        self.nbr = [0] * self.n
        self.end_bits = []
        self.deltas = []
        self.tacnodes = 0  # bit i: intersection i is a tacnode
        for i, x in enumerate(g.intersections):
            a, b = (self.index[c] for c in x.components())
            self.end_bits.append((a, b))
            self.deltas.append(x.delta)
            if x.kind == TACNODE:
                self.tacnodes |= 1 << i
            if a != b:
                self.nbr[a] |= 1 << b
                self.nbr[b] |= 1 << a
        self.all_mask = (1 << self.n) - 1

    def mask_of(self, sub: Iterable[str]) -> int:
        mask = 0
        for cid in sub:
            mask |= 1 << self.index[cid]
        return mask

    def subset_of(self, mask: int) -> frozenset[str]:
        return frozenset(self.ids[i] for i in range(self.n) if mask >> i & 1)

    def connected(self, mask: int, drop: Optional[int] = None) -> bool:
        """Connectivity of the induced subgraph, optionally dropping one intersection."""
        if mask == 0:
            return False
        nbr = self.nbr
        if drop is not None:
            nbr = [0] * self.n
            for i, (a, b) in enumerate(self.end_bits):
                if i != drop and a != b:
                    nbr[a] |= 1 << b
                    nbr[b] |= 1 << a
        seen = mask & -mask
        frontier = seen
        while frontier:
            nxt = 0
            m = frontier
            while m:
                bit = m & -m
                m ^= bit
                nxt |= nbr[bit.bit_length() - 1]
            frontier = nxt & mask & ~seen
            seen |= frontier
        return seen == mask

    def crossings(self, mask: int) -> list[tuple[int, int]]:
        """(intersection index, end inside `mask`) of each intersection leaving `mask`."""
        out = []
        for i, (a, b) in enumerate(self.end_bits):
            ina = mask >> a & 1
            inb = mask >> b & 1
            if ina != inb:
                out.append((i, 0 if ina else 1))
        return out

    def incident(self) -> list[list[tuple[int, int, int]]]:
        """(pair mask, delta, intersection index) of each intersection on each component."""
        out: list[list[tuple[int, int, int]]] = [[] for _ in range(self.n)]
        for i, (a, b) in enumerate(self.end_bits):
            entry = ((1 << a) | (1 << b), self.deltas[i], i)
            out[a].append(entry)
            if a != b:
                out[b].append(entry)
        return out


@lru_cache(maxsize=256)
def _graph_data(g: CurveGraph) -> _GraphData:
    return _GraphData(g)


@lru_cache(maxsize=256)
def _subcurves(g: CurveGraph) -> tuple[tuple[int, int, int], ...]:
    """(mask, genus, crossings) of every connected proper subcurve of genus <= 1.

    Ascending by mask; bit i of `crossings` is set when intersection i joins
    the subcurve to its complement.  Every stability predicate reads this
    table.  Connected sets grow one adjacent component at a time from each
    seed, in Wernicke's ESU order, which reaches every connected set exactly
    once.  Growth never lowers the genus: adding v to a connected S adds
    contrib(v) - 1 plus the deltas of the intersections v gains, at least
    one of which joins v to S.  So a set of genus above 1 is never extended.
    Growth keeps the crossings too: adding v toggles every intersection
    joining v to another component.  Visiting more than `SUBCURVE_BUDGET`
    sets raises CurveGraphError.
    """
    data = _graph_data(g)
    incident = data.incident()
    flips = [0] * data.n  # bit i of flips[k]: intersection i joins k to another component
    for i, (a, b) in enumerate(data.end_bits):
        if a != b:
            flips[a] ^= 1 << i
            flips[b] ^= 1 << i
    out = []
    visited = 0
    for v in range(data.n):
        bit = 1 << v
        above = -(bit << 1)  # ESU extends a seed only by components after it
        # each entry: (set, its genus, its crossings, extension candidates,
        # set plus neighbours); the empty set counts genus 1, so that growing
        # it by v gives v's own genus, cusps and self-intersections
        stack = [(0, 1, 0, bit, 0)]
        while stack:
            mask, genus, cross, ext, closed = stack.pop()
            while ext:
                w = ext & -ext
                ext ^= w
                visited += 1
                if visited > SUBCURVE_BUDGET:
                    raise CurveGraphError(
                        f"subcurve search on {data.n} components visits more than "
                        f"{SUBCURVE_BUDGET} subsets"
                    )
                grown = mask | w
                k = w.bit_length() - 1
                h = genus + data.contrib[k] - 1
                h += sum(d for pm, d, _ in incident[k] if pm & grown == pm)
                if h > 1:
                    continue
                gcross = cross ^ flips[k]
                if grown != data.all_mask:
                    out.append((grown, h, gcross))
                nbr = data.nbr[k]
                stack.append((grown, h, gcross, ext | nbr & ~closed & above, closed | nbr | w))
    out.sort()
    return tuple(out)


# ---------------------------------------------------------------------------
# genus and contact arithmetic
# ---------------------------------------------------------------------------


def arithmetic_genus(g: CurveGraph) -> int:
    """Arithmetic genus: sum of (genus + cusps) and deltas, minus (#comps - 1)."""
    if not g.is_connected():
        raise CurveGraphError("disconnected")
    total = sum(c.genus + c.cusps for c in g.components)
    total += sum(x.delta for x in g.intersections)
    return total - (len(g.components) - 1)


def _subset_connected(g: CurveGraph, sub: frozenset[str]) -> bool:
    if not sub:
        return False
    data = _graph_data(g)
    return data.connected(data.mask_of(sub))


def crossing_intersections(g: CurveGraph, sub: frozenset[str]) -> list[tuple[int, int]]:
    """Intersections joining `sub` to its complement.

    Returns (intersection index, end index of the branch inside `sub`).
    """
    data = _graph_data(g)
    return data.crossings(data.mask_of(sub))


def contact_multiplicity(g: CurveGraph, sub: Iterable[str]) -> int:
    """Branch-weighted contact of a subcurve with its complement (tacnode = 2)."""
    sub = frozenset(sub)
    if not sub or sub == frozenset(g.ids()):
        raise CurveGraphError("subcurve must be a nonempty proper subset")
    if not _subset_connected(g, sub):
        raise CurveGraphError("subcurve is not connected")
    return sum(g.intersections[i].delta for i, _ in crossing_intersections(g, sub))


# ---------------------------------------------------------------------------
# elliptic tails, bridges, chains
# ---------------------------------------------------------------------------


def _genus_one_with_crossings(g: CurveGraph, count: int) -> list[frozenset[str]]:
    if not g.is_connected():
        raise CurveGraphError("disconnected")
    data = _graph_data(g)
    out = [
        data.subset_of(mask)
        for mask, genus, cross in _subcurves(g)
        if genus == 1 and cross.bit_count() == count and not cross & data.tacnodes
    ]
    return sorted(out, key=lambda s: sorted(s))


def find_elliptic_tails(g: CurveGraph) -> list[frozenset[str]]:
    """Connected genus-one subcurves meeting the rest in exactly one node."""
    return _genus_one_with_crossings(g, 1)


def find_elliptic_bridges(g: CurveGraph) -> list[frozenset[str]]:
    """Connected genus-one subcurves meeting the rest in exactly two nodes."""
    return _genus_one_with_crossings(g, 2)


def bridge_links(g: CurveGraph) -> list[frozenset[str]]:
    """Minimal elliptic bridges: the genus-one links of maximal bridge chains."""
    bridges = find_elliptic_bridges(g)
    links = [b for b in bridges if not any(o < b for o in bridges)]
    for a, b in itertools.combinations(links, 2):
        if a & b:
            raise CurveGraphError("overlapping minimal elliptic bridges")
    return links


@dataclass(frozen=True)
class ChainRecord:
    """An elliptic chain found in a graph.

    `blocks` are the genus-one links in order; `ends` holds the attachment
    intersection indices: (p-end, q-end) for open chains (for weak chains the
    tacnodal end comes first), or the closing intersection for closed chains.
    """

    closed: bool
    weak: bool
    length: int
    blocks: tuple[tuple[str, ...], ...]
    ends: tuple[int, ...]


def _chain_ample(
    data: _GraphData,
    incident: list[list[tuple[int, int, int]]],
    blocks: Sequence[int],
    ends: Sequence[int],
    excl: int,
) -> bool:
    """Check ampleness of the dualizing sheaf twisted by the two end points.

    Combinatorial form: on every component of the chain, twice its local
    arithmetic genus, minus two, plus its branch-weighted contact inside the
    chain, plus the number of end points on it, must be positive.
    `incident` is `data.incident()`, `blocks` are component masks, `ends`
    the component indices of the end points, and the intersections in the
    bitmask `excl` are left out.
    """
    union = 0
    for b in blocks:
        union |= b
    m = union
    while m:
        bit = m & -m
        m ^= bit
        k = bit.bit_length() - 1
        deg = 2 * data.contrib[k] - 2 + ends.count(k)
        for pm, d, i in incident[k]:
            if not excl >> i & 1 and pm & union == pm:
                # a self-intersection has both branches on the component
                deg += 2 * d if pm == bit else d
        if deg <= 0:
            return False
    return True


# A graph's chains are read again within one basins operation; the records
# are larger than the subcurve table, so fewer graphs are kept.
@lru_cache(maxsize=32)
def _find_chains(g: CurveGraph) -> tuple[ChainRecord, ...]:
    """Every open and closed (weak) elliptic chain.

    The blocks are the genus-one entries of `_subcurves`.  Exploring more
    than `SUBCURVE_BUDGET` sequences of two or more blocks raises
    CurveGraphError.
    """
    if not g.is_connected():
        raise CurveGraphError("disconnected")
    data = _graph_data(g)
    incident = data.incident()
    tacnodes = data.tacnodes
    ones: dict[int, int] = {}  # block -> the intersections leaving it
    leaving: dict[int, list[int]] = {}  # intersection bit -> blocks it leaves
    for mask, genus, cross in _subcurves(g):
        if genus == 1:
            ones[mask] = cross
            m = cross
            while m:
                bit = m & -m
                m ^= bit
                leaving.setdefault(bit, []).append(mask)
    explored = 0

    def sequences(first: int, excl: int) -> Iterator[tuple[list[int], int]]:
        """(blocks, union) of `first` and of each sequence of disjoint blocks
        after it, every block joined to the one before by exactly one tacnode
        and to no earlier block; the intersections in `excl` join nothing.

        Two disjoint blocks are joined by exactly the intersections that
        leave both, and `before` holds those leaving the blocks before the
        last.
        """
        nonlocal explored
        stack = [([first], first, 0)]
        while stack:
            seq, used, before = stack.pop()
            yield seq, used
            last = ones[seq[-1]] & ~excl
            m = last & tacnodes
            while m:
                bit = m & -m
                m ^= bit
                for b in leaving[bit]:
                    cb = ones[b]
                    if b & used or last & cb != bit or cb & before:
                        continue
                    explored += 1
                    if explored > SUBCURVE_BUDGET:
                        raise CurveGraphError(
                            f"chain search on {data.n} components explores more than "
                            f"{SUBCURVE_BUDGET} block sequences"
                        )
                    stack.append((seq + [b], used | b, before | last))

    records: dict[tuple, ChainRecord] = {}
    names: dict[int, tuple[str, ...]] = {}  # one id tuple per block, shared by its records

    def emit(closed: bool, weak: bool, seq: list[int], ends: tuple[int, ...]) -> None:
        # canonicalize direction so each chain is reported once; weak open
        # chains are already oriented with the tacnodal end on the first block
        for b in seq:
            if b not in names:
                names[b] = tuple(sorted(data.subset_of(b)))
        fwd = tuple(names[b] for b in seq)
        rev = fwd[::-1]
        if closed and rev < fwd:
            fwd = rev
        elif not closed and not weak:
            if rev < fwd or (rev == fwd and ends[::-1] < ends):
                fwd, ends = rev, ends[::-1]
        records.setdefault((closed, weak, fwd, ends), ChainRecord(closed, weak, len(seq), fwd, ends))

    # open chains: a chain meets the rest of the curve, so its blocks are proper
    for first in ones:
        for seq, union in sequences(first, 0):
            cross = 0
            for blk in seq:
                cross ^= ones[blk]  # the blocks are disjoint: what leaves the union
            if cross.bit_count() != 2:
                continue
            if cross & tacnodes == cross:
                continue  # two tacnodal attachments make no chain
            i1, i2 = (cross & -cross).bit_length() - 1, cross.bit_length() - 1
            (a1, b1), (a2, b2) = data.end_bits[i1], data.end_bits[i2]
            c1 = a1 if union >> a1 & 1 else b1
            c2 = a2 if union >> a2 & 1 else b2
            placements = []
            if seq[0] >> c1 & 1 and seq[-1] >> c2 & 1:
                placements.append(((i1, c1), (i2, c2)))
            if len(seq) > 1 and seq[0] >> c2 & 1 and seq[-1] >> c1 & 1:
                placements.append(((i2, c2), (i1, c1)))
            for (ip, cp), (iq, cq) in placements:
                if not _chain_ample(data, incident, seq, (cp, cq), 0):
                    continue
                if not cross & tacnodes:
                    emit(False, False, seq, (ip, iq))
                elif tacnodes >> ip & 1:
                    emit(False, True, seq, (ip, iq))
                else:
                    # orient the tacnodal attachment onto the first block
                    emit(False, True, seq[::-1], (iq, ip))

    # closed chains: the whole curve, cut at a closing node or tacnode
    pa = arithmetic_genus(g)
    for ci, (a, b) in enumerate(data.end_bits):
        excl = 1 << ci
        weak = excl & tacnodes != 0
        # a chain of length 1 is the whole curve cut at `ci`
        if (
            pa - data.deltas[ci] == 1
            and data.connected(data.all_mask, drop=ci)
            and _chain_ample(data, incident, [data.all_mask], (a, b), excl)
        ):
            emit(True, weak, [data.all_mask], (ci,))
        # A longer chain starts with a block holding one end of `ci`, so
        # `ci` leaves it; every later block is disjoint from it and so holds
        # at most one end too, and its genus does not see `ci`.
        for first in leaving.get(excl, ()):
            if not ones[first] & tacnodes & ~excl:
                continue
            for seq, union in sequences(first, excl):
                if (
                    union == data.all_mask
                    and seq[-1] >> (a if seq[0] >> b & 1 else b) & 1
                    and _chain_ample(data, incident, seq, (a, b), excl)
                ):
                    emit(True, weak, seq, (ci,))
    return tuple(
        sorted(records.values(), key=lambda r: (r.closed, r.weak, r.length, r.blocks, r.ends))
    )


def find_elliptic_chains(g: CurveGraph) -> list[ChainRecord]:
    """Open and closed elliptic chains admitted by the curve (nodal attachments)."""
    if arithmetic_genus(g) < 3:
        raise CurveGraphError("elliptic chains require arithmetic genus >= 3")
    return [r for r in _find_chains(g) if not r.weak]


def find_weak_elliptic_chains(g: CurveGraph) -> list[ChainRecord]:
    """Weak elliptic chains: one tacnodal attachment (or a tacnodal closing)."""
    if arithmetic_genus(g) < 3:
        raise CurveGraphError("elliptic chains require arithmetic genus >= 3")
    return [r for r in _find_chains(g) if r.weak]


# ---------------------------------------------------------------------------
# rosaries
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RosaryRecord:
    """A maximal open rosary, or the whole curve as a (possibly broken) cycle.

    For open rosaries `length` counts beads and `ends` the two attachment
    intersections.  For closed records `length` counts tacnodal junctions, so
    the genus is always length + 1 regardless of broken beads.
    """

    closed: bool
    beads: tuple[str, ...]
    length: int
    broken_beads: int = 0
    ends: tuple[int, ...] = ()


def _bead_candidates(g: CurveGraph) -> dict[str, list[tuple[int, int]]]:
    """Components usable as rosary beads: smooth rational, exactly two branches."""
    beads = {}
    for c in g.components:
        if c.genus != 0 or c.cusps != 0:
            continue
        inc = g.incident_ends(c.id)
        if len(inc) != 2:
            continue
        if any(
            g.intersections[i].ends[0][0] == g.intersections[i].ends[1][0]
            for i, _ in inc
        ):
            continue  # self-intersection disqualifies a bead
        beads[c.id] = inc
    return beads


def _bead_cycle(g: CurveGraph) -> Optional[tuple[list[str], list[int]]]:
    """If the whole curve is a cycle of beads, return (beads in order, junctions)."""
    beads = _bead_candidates(g)
    if len(beads) != len(g.components) or len(g.components) < 2:
        return None
    if not g.is_connected():
        return None
    if len(g.intersections) != len(g.components):
        return None
    start = min(beads)
    order = [start]
    junctions: list[int] = []
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
        if nb in order:
            return None
        order.append(nb)
    if len(order) != len(g.components):
        return None
    return order, junctions


def _open_runs(g: CurveGraph) -> list[RosaryRecord]:
    """Maximal tacnode-linked bead chains with nodal end attachments."""
    beads = _bead_candidates(g)
    runs: list[RosaryRecord] = []
    seen: set[frozenset[str]] = set()
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
        xs: list[int] = []
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
            outward = [
                (i, j) for i, j in beads[end_bead] if i not in xs
            ]
            if len(outward) != 1 or g.intersections[outward[0][0]].kind != NODE:
                valid = False
                break
            end_nodes.append(outward[0][0])
        if not valid:
            continue
        seen.add(frozenset(chain))
        runs.append(
            RosaryRecord(
                closed=False,
                beads=tuple(chain),
                length=len(chain),
                ends=tuple(end_nodes),
            )
        )
    return sorted(runs, key=lambda r: r.beads)


def _cycle_runs(g: CurveGraph, order: list[str], junctions: list[int]) -> list[RosaryRecord]:
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
        runs.append(
            RosaryRecord(False, tuple(beads), len(beads), ends=tuple(sorted(ends)))
        )
    return sorted(runs, key=lambda r: r.beads)


def find_rosaries(g: CurveGraph) -> list[RosaryRecord]:
    """Maximal open rosaries (length >= 2), or the whole curve as a bead cycle."""
    if not g.is_connected():
        raise CurveGraphError("disconnected")
    cycle = _bead_cycle(g)
    if cycle is not None:
        order, junctions = cycle
        broken = sum(1 for i in junctions if g.intersections[i].kind == NODE)
        return [
            RosaryRecord(
                closed=True,
                beads=tuple(order),
                length=len(order) - broken,
                broken_beads=broken,
            )
        ]
    return [r for r in _open_runs(g) if r.length >= 2]


def open_rosaries(g: CurveGraph) -> list[RosaryRecord]:
    """All maximal open rosaries, including runs inside a broken bead cycle."""
    cycle = _bead_cycle(g)
    if cycle is not None:
        return _cycle_runs(g, *cycle)
    return _open_runs(g)


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------


def _genus_contacts(g: CurveGraph) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
    """(points, multiplicity) contact pairs of all proper genus-0 / genus-1 subcurves.

    A node counts once in the multiplicity and a tacnode twice.
    """
    tacnodes = _graph_data(g).tacnodes
    zero, one = [], []
    for _mask, genus, cross in _subcurves(g):
        points = cross.bit_count()
        pair = (points, points + (cross & tacnodes).bit_count())
        (zero if genus == 0 else one).append(pair)
    return zero, one


def classify(g: CurveGraph) -> StabilityFlags:
    """Evaluate every stability notion on a connected curve of genus >= 2."""
    if not g.is_connected():
        raise CurveGraphError("disconnected")
    genus = arithmetic_genus(g)
    if genus < 2:
        raise CurveGraphError("stability notions require arithmetic genus >= 2")

    has_cusp = any(c.cusps > 0 for c in g.components)
    has_tacnode = any(x.kind == TACNODE for x in g.intersections)
    zero, one = _genus_contacts(g)

    genus0_plain = all(pts >= 3 for pts, _ in zero)
    genus0_mult = all(mult >= 3 for _, mult in zero)
    genus1_two_points = all(pts >= 2 for pts, _ in one)
    genus1_three_mult = all(mult >= 3 for _, mult in one)

    dm_stable = (not has_cusp) and (not has_tacnode) and genus0_plain
    pseudostable = (not has_tacnode) and genus0_plain and genus1_two_points
    c_semistable = genus0_mult and genus1_two_points
    bridges = find_elliptic_bridges(g)
    c_stable = c_semistable and not has_tacnode and not bridges

    if genus >= 3:
        chains = _find_chains(g)
        has_chain = any(not r.weak for r in chains)
        has_weak = any(r.weak for r in chains)
    else:
        has_chain = has_weak = False
    h_semistable = c_semistable and genus1_three_mult and not has_chain
    h_stable = h_semistable and not has_weak

    return StabilityFlags(
        dm_stable=dm_stable,
        pseudostable=pseudostable,
        c_semistable=c_semistable,
        c_stable=c_stable,
        h_semistable=h_semistable,
        h_stable=h_stable,
    )


def has_infinite_automorphisms(g: CurveGraph) -> tuple[bool, Optional[RosaryRecord]]:
    """Whether the identity component of the automorphism group is positive
    dimensional, with the witnessing rosary.

    True exactly when the curve admits an open rosary of length >= 2 or is an
    unbroken closed rosary of odd genus.  Requires a c-semistable curve of
    genus >= 4.
    """
    flags = classify(g)
    if not flags.c_semistable:
        raise CurveGraphError("automorphism classification requires a c-semistable curve")
    if arithmetic_genus(g) < 4:
        raise CurveGraphError("automorphism classification requires genus >= 4")
    cycle = _bead_cycle(g)
    if cycle is not None:
        order, junctions = cycle
        broken = sum(1 for i in junctions if g.intersections[i].kind == NODE)
        if broken == 0:
            rec = RosaryRecord(True, tuple(order), len(order))
            return (arithmetic_genus(g) % 2 == 1, rec)
        runs = _cycle_runs(g, order, junctions)
        long = [r for r in runs if r.length >= 2]
        return (bool(long), long[0] if long else None)
    runs = [r for r in _open_runs(g) if r.length >= 2]
    return (bool(runs), runs[0] if runs else None)


def aut_torus_rank(g: CurveGraph) -> int:
    """Rank of the automorphism torus of a closed-orbit curve.

    Counts one factor per length-two rosary (Chow side: equals the tacnode
    count), one per length-three rosary (Hilbert side: half the tacnodes in
    rosaries), and a single factor for an unbroken closed rosary of odd genus.
    """
    from . import basins  # deferred: basins builds on this module

    cycle = _bead_cycle(g)
    if cycle is not None:
        order, junctions = cycle
        broken = sum(1 for i in junctions if g.intersections[i].kind == NODE)
        if broken == 0:
            return 1 if arithmetic_genus(g) % 2 == 1 else 0
    if basins.is_c_closed_orbit(g):
        return sum(1 for r in open_rosaries(g) if r.length == 2)
    if basins.is_h_closed_orbit(g):
        return sum(1 for r in open_rosaries(g) if r.length == 3)
    raise CurveGraphError("not a closed-orbit curve")


# ---------------------------------------------------------------------------
# constructors and isomorphism testing
# ---------------------------------------------------------------------------


def open_rosary_graph(length: int, *, prefix: str = "L") -> CurveGraph:
    """A free-standing open rosary: `length` beads joined by tacnodes."""
    if length < 1:
        raise CurveGraphError("rosary length must be >= 1")
    comps = tuple(Component(f"{prefix}{i}", 0) for i in range(1, length + 1))
    xs = tuple(
        Intersection(TACNODE, ((f"{prefix}{i}", 1), (f"{prefix}{i+1}", 0)))
        for i in range(1, length)
    )
    return CurveGraph(comps, xs)


def closed_rosary_graph(length: int, broken: Sequence[int] = ()) -> CurveGraph:
    """A closed rosary of the given length, optionally with broken beads.

    `broken` lists bead positions (0-based, < length) to replace by two
    rational curves meeting in a node; genus is length + 1 either way.
    """
    if length < 2:
        raise CurveGraphError("closed rosary length must be >= 2")
    broken = sorted(set(broken))
    if broken and (broken[0] < 0 or broken[-1] >= length):
        raise CurveGraphError("broken bead position out of range")
    names: list[str] = []
    xs: list[Intersection] = []
    for i in range(length):
        if i in broken:
            names.extend([f"L{i}a", f"L{i}b"])
            xs.append(Intersection(NODE, ((f"L{i}a", 1), (f"L{i}b", 0))))
        else:
            names.append(f"L{i}")
    comps = tuple(Component(n, 0) for n in names)
    heads = {}
    tails = {}
    for i in range(length):
        heads[i] = f"L{i}a" if i in broken else f"L{i}"
        tails[i] = f"L{i}b" if i in broken else f"L{i}"
    for i in range(length):
        j = (i + 1) % length
        xs.append(Intersection(TACNODE, ((tails[i], 2), (heads[j], 3))))
    return CurveGraph(comps, tuple(xs))


def bridge_chain_graph(
    link_genera: Sequence[int], end_genera: tuple[int, int] = (2, 2)
) -> CurveGraph:
    """C1 - E1 - ... - Ek - C2: an elliptic-bridge chain between two anchors."""
    comps = [Component("C1", end_genera[0])]
    comps += [Component(f"E{i+1}", gE) for i, gE in enumerate(link_genera)]
    comps += [Component("C2", end_genera[1])]
    names = [c.id for c in comps]
    xs = tuple(
        Intersection(NODE, ((names[i], 1), (names[i + 1], 0)))
        for i in range(len(names) - 1)
    )
    return CurveGraph(tuple(comps), xs)


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
