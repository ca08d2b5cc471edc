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
from functools import reduce
from typing import Iterable, Iterator, Optional, Sequence

from . import GitcurvesError, _Record, _set

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


class Component(_Record):
    """One irreducible component: geometric genus plus ordinary-cusp count."""

    __slots__ = ("id", "genus", "cusps", "label")

    def __init__(self, id: str, genus: int, cusps: int = 0, label: Optional[str] = None) -> None:
        _set(self, "id", id)
        _set(self, "genus", genus)
        _set(self, "cusps", cusps)
        _set(self, "label", label)
        if genus < 0 or cusps < 0:
            raise CurveGraphError(f"component {id!r}: genus and cusp count must be >= 0")

    def __hash__(self) -> int:
        return hash((self.id, self.genus, self.cusps, self.label))


class Intersection(_Record):
    """A node or tacnode joining two branches, given as (component, slot) ends.

    Slots distinguish branches of the same component; an intersection whose
    two ends lie on one component is a self-node or self-tacnode.
    """

    __slots__ = ("kind", "ends")

    def __init__(self, kind: str, ends: tuple[End, End]) -> None:
        _set(self, "kind", kind)
        _set(self, "ends", ends)
        if kind not in DELTA:
            raise CurveGraphError(f"unknown singularity kind {kind!r}")
        if len(ends) != 2:
            raise CurveGraphError("an intersection has exactly two ends")

    def __hash__(self) -> int:
        return hash((self.kind, self.ends))

    @property
    def delta(self) -> int:
        return DELTA[self.kind]

    def components(self) -> tuple[str, str]:
        return (self.ends[0][0], self.ends[1][0])


class StabilityFlags(_Record):
    """Outcome of `classify`: one boolean per stability notion."""

    __slots__ = ("dm_stable", "pseudostable", "c_semistable", "c_stable", "h_semistable",
                 "h_stable")

    def __init__(self, dm_stable: bool, pseudostable: bool, c_semistable: bool,
                 c_stable: bool, h_semistable: bool, h_stable: bool) -> None:
        self._init(dm_stable, pseudostable, c_semistable, c_stable, h_semistable, h_stable)

    def as_dict(self) -> dict[str, bool]:
        return dict(zip(self._fields, self._values(self)))


class CurveGraph(_Record):
    """Connected decorated dual graph of an unpointed projective curve.

    Connectivity is not enforced at construction; operations that require it
    raise `CurveGraphError("disconnected")`.  Marked points are not supported:
    a non-empty `marks` raises CurveGraphError.
    """

    # `marks` stays empty (perfbench/workloads.relabel passes it); `hash` sets
    # `_hash`, and the first query sets `_data`, the graph's `_GraphData`
    __slots__ = ("components", "intersections", "marks", "_hash", "_data")

    def __init__(self, components: tuple[Component, ...],
                 intersections: tuple[Intersection, ...] = (), marks: tuple[()] = ()) -> None:
        _set(self, "components", components)
        _set(self, "intersections", intersections)
        _set(self, "marks", marks)
        if marks:
            raise CurveGraphError("marked points are not supported")
        ids = [c.id for c in components]
        if len(set(ids)) != len(ids):
            raise CurveGraphError("duplicate component ids")
        known = set(ids)
        used_ends: set[End] = set()
        for x in intersections:
            for end in x.ends:
                cid, _slot = end
                if cid not in known:
                    raise CurveGraphError(f"intersection references unknown component {cid!r}")
                if end in used_ends:
                    raise CurveGraphError(f"branch slot {end!r} used twice")
                used_ends.add(end)

    def __hash__(self) -> int:
        # computed once, for callers that hash graphs (sets, dict keys, `lru_cache`);
        # no query in this module hashes its graph
        try:
            return self._hash
        except AttributeError:
            h = hash((self.components, self.intersections))
            _set(self, "_hash", h)  # not pickled: a hash of str ids holds in one process
            return h

    # -- basic accessors -------------------------------------------------

    def ids(self) -> tuple[str, ...]:
        return tuple(c.id for c in self.components)

    def component(self, cid: str) -> Component:
        for c in self.components:
            if c.id == cid:
                return c
        raise CurveGraphError(f"no component {cid!r}")

    def is_connected(self) -> bool:
        return _graph_data(self).whole_connected

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
# the one record of a graph, kept on the graph
# ---------------------------------------------------------------------------


class _GraphData:
    """The one record of a graph, kept in its `_data` slot by `_graph_data` and
    freed with it: the bitmask tables, built in one plain pass over the
    components and one over the intersections, and the per-graph results
    `table`, `leaving`, `flags` (of `classify`), `chains` and `beads` (of
    `_bead_walk`), filled on first use.  Equal graphs that are different
    objects each build their own.  Only this module reads the record: the
    bead walk, the bridge links and the c closed-orbit test use its masks.

    Bit i of an intersection mask is intersection i.  `flips[k]` holds the
    intersections joining component k to another component, `loops[k]` its
    self-intersections, and `base[k]` is contrib(k) - 1 plus their deltas.
    `genus` is the arithmetic genus of the whole curve.  `table` holds the
    connected proper genus-1 subcurves; `leaving` indexes those of them that
    meet the rest in exactly two points, the only ones an elliptic chain uses.
    """

    __slots__ = (
        "ids", "index", "n", "contrib", "cusped", "nbr", "end_bits", "deltas", "tacnodes",
        "flips", "loops", "base", "genus", "all_mask", "whole_connected",
        "_table", "_leaving", "flags", "chains", "beads",
    )

    def __init__(self, g: CurveGraph):
        ids = []
        self.contrib = contrib = []
        cusped = False
        for c in g.components:
            ids.append(c.id)
            contrib.append(c.genus + c.cusps)
            cusped = cusped or c.cusps > 0
        self.ids, self.cusped, self.n = tuple(ids), cusped, len(ids)
        self.index = index = {cid: i for i, cid in enumerate(ids)}
        self.nbr = nbr = [0] * self.n
        self.flips = flips = [0] * self.n
        self.loops = loops = [0] * self.n
        self.base = base = [h - 1 for h in contrib]
        self.end_bits = end_bits = []
        self.deltas = deltas = []
        tacnodes = 0
        bit = 1
        for x in g.intersections:
            (ca, _), (cb, _) = x.ends
            a, b, d = index[ca], index[cb], DELTA[x.kind]
            end_bits.append((a, b))
            deltas.append(d)
            if x.kind == TACNODE:
                tacnodes |= bit
            if a == b:
                loops[a] |= bit
                base[a] += d
            else:
                flips[a] |= bit
                flips[b] |= bit
                nbr[a] |= 1 << b
                nbr[b] |= 1 << a
            bit <<= 1
        self.tacnodes = tacnodes
        self.genus = sum(contrib) + sum(deltas) - self.n + 1
        self.all_mask = (1 << self.n) - 1
        self.whole_connected = self.connected(self.all_mask)
        self._table = self._leaving = self.flags = self.chains = self.beads = None

    def mask_of(self, sub: Iterable[str]) -> int:
        mask = 0
        for cid in sub:
            if cid not in self.index:
                raise CurveGraphError(f"no component {cid!r}")
            mask |= 1 << self.index[cid]
        return mask

    def subset_of(self, mask: int) -> frozenset[str]:
        return frozenset(itertools.compress(self.ids, map(int, bin(mask)[:1:-1])))  # low bit first

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

    @property
    def table(self) -> dict[int, int]:
        """mask -> crossings of every connected proper subcurve of genus 1.

        Ascending by mask; bit i of `crossings` is set when intersection i joins
        the subcurve to its complement.  Connected sets grow one adjacent
        component at a time from each seed, in Wernicke's ESU order, which
        reaches every connected set exactly once.  Each step is mask arithmetic:
        adding k to S, the intersections joining k to S are
        j = crossings(S) & flips[k], so the genus grows by
        base[k] + |j| + |j & tacnodes|, and the crossings of S + k are
        crossings(S) ^ flips[k].  Growth never lowers the genus, since j is not
        empty and base[k] >= -1: a set of genus above 1 is never extended, and
        one of genus 0 is extended but not kept.  Visiting more than
        `SUBCURVE_BUDGET` sets raises CurveGraphError.
        """
        if self._table is not None:
            return self._table
        flips, base, nbrs, tacnodes = self.flips, self.base, self.nbr, self.tacnodes
        all_mask = self.all_mask
        out = []
        visited = 0
        for v in range(self.n):
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
                            f"subcurve search on {self.n} components visits more than "
                            f"{SUBCURVE_BUDGET} subsets"
                        )
                    k = w.bit_length() - 1
                    j = cross & flips[k]
                    h = genus + base[k] + j.bit_count() + (j & tacnodes).bit_count()
                    if h > 1:
                        continue
                    grown = mask | w
                    gcross = cross ^ flips[k]
                    if h == 1 and grown != all_mask:
                        out.append((grown, gcross))
                    nbr = nbrs[k]
                    stack.append((grown, h, gcross, ext | nbr & ~closed & above, closed | nbr | w))
        self._table = dict(sorted(out))
        return self._table

    @property
    def leaving(self) -> dict[int, list[int]]:
        """The chain block index: intersection index -> the table entries with
        exactly two crossing points that it leaves, ascending by mask.  Every
        block of an elliptic chain meets the rest of the curve in two points."""
        if self._leaving is None:
            leaving: dict[int, list[int]] = {}
            for mask, cross in self.table.items():
                if cross.bit_count() == 2:
                    leaving.setdefault((cross & -cross).bit_length() - 1, []).append(mask)
                    leaving.setdefault(cross.bit_length() - 1, []).append(mask)
            self._leaving = leaving
        return self._leaving


def _graph_data(g: CurveGraph) -> _GraphData:
    try:
        return g._data
    except AttributeError:
        data = _GraphData(g)
        _set(g, "_data", data)  # not pickled: it is rebuilt on first use
        return data


def _connected_data(g: CurveGraph) -> _GraphData:
    """The graph's record; CurveGraphError("disconnected") unless it is connected."""
    data = _graph_data(g)
    if not data.whole_connected:
        raise CurveGraphError("disconnected")
    return data


# ---------------------------------------------------------------------------
# genus and contact arithmetic
# ---------------------------------------------------------------------------


def arithmetic_genus(g: CurveGraph) -> int:
    """Arithmetic genus: sum of (genus + cusps) and deltas, minus (#comps - 1)."""
    return _connected_data(g).genus


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
    data = _graph_data(g)
    mask = data.mask_of(sub)
    if not data.connected(mask):
        raise CurveGraphError("subcurve is not connected")
    return sum(data.deltas[i] for i, _ in data.crossings(mask))


# ---------------------------------------------------------------------------
# elliptic tails, bridges, chains
# ---------------------------------------------------------------------------


def _genus_one_masks(data: _GraphData, count: int = 2) -> list[int]:
    """Masks of the table entries meeting the rest in `count` points, none of
    them a tacnode, ascending: the elliptic tails (1) or bridges (2)."""
    tac = data.tacnodes
    return [m for m, cross in data.table.items() if cross.bit_count() == count and not cross & tac]


def _genus_one_with_crossings(g: CurveGraph, count: int) -> list[frozenset[str]]:
    data = _connected_data(g)
    return sorted(map(data.subset_of, _genus_one_masks(data, count)), key=sorted)


def find_elliptic_tails(g: CurveGraph) -> list[frozenset[str]]:
    """Connected genus-one subcurves meeting the rest in exactly one node."""
    return _genus_one_with_crossings(g, 1)


def find_elliptic_bridges(g: CurveGraph) -> list[frozenset[str]]:
    """Connected genus-one subcurves meeting the rest in exactly two nodes."""
    return _genus_one_with_crossings(g, 2)


def bridge_links(g: CurveGraph) -> list[frozenset[str]]:
    """Minimal elliptic bridges, the genus-one links of maximal bridge chains,
    in order of their sorted ids; minimality and overlap are tested on masks."""
    data = _connected_data(g)
    links, union = [], 0
    # smallest first: a bridge missing the links so far is minimal, and one
    # meeting them is minimal (so overlapping) unless it holds one of them
    for b in sorted(_genus_one_masks(data), key=int.bit_count):
        if not b & union:
            links.append(b)
            union |= b
        elif not any(link & b == link for link in links):
            raise CurveGraphError("overlapping minimal elliptic bridges")
    return sorted(map(data.subset_of, links), key=sorted)


class ChainRecord(_Record):
    """An elliptic chain found in a graph.

    `blocks` are the genus-one links in order; `ends` holds the attachment
    intersection indices: (p-end, q-end) for open chains (for weak chains the
    tacnodal end comes first), or the closing intersection for closed chains.
    """

    __slots__ = ("closed", "weak", "length", "blocks", "ends")

    def __init__(self, closed: bool, weak: bool, length: int,
                 blocks: tuple[tuple[str, ...], ...], ends: tuple[int, ...]) -> None:
        self._init(closed, weak, length, blocks, ends)


def _chain_ample(data: _GraphData, union: int, cross: int, ends: tuple, excl: int) -> bool:
    """Check ampleness of the dualizing sheaf twisted by the two end points.

    Combinatorial form: on every component of the chain, twice its local
    arithmetic genus, minus two, plus its branch-weighted contact inside the
    chain, plus the number of end points on it, must be positive.  `union`
    is the chain's component mask, `cross` the intersections leaving it and
    `ends` the component indices of the end points; the intersections in
    the bitmask `excl` are left out.
    """
    tacnodes = data.tacnodes
    inside = ~(cross | excl)
    m = union
    while m:
        k = m.bit_length() - 1
        m ^= 1 << k
        loops = data.loops[k] & ~excl  # both branches on k: each counts twice
        joins = data.flips[k] & inside
        deg = 2 * (data.contrib[k] - 1 + loops.bit_count() + (loops & tacnodes).bit_count())
        deg += joins.bit_count() + (joins & tacnodes).bit_count() + ends.count(k)
        if deg <= 0:
            return False
    return True


def _blocks(chain: tuple) -> list[int]:
    """The blocks of a linked chain (last block, chain before it or None), in order."""
    out = []
    while chain:
        block, chain = chain
        out.append(block)
    return out[::-1]


def _chain_hits(
    g: CurveGraph, weak: Optional[bool] = None
) -> Iterator[tuple[bool, bool, list[int], tuple[int, ...]]]:
    """(closed, weak, blocks, ends) of the elliptic chains, as the search meets them.

    `weak` None searches both kinds, True or False only that kind.  The
    blocks are masks from the graph's block index.  An open weak chain comes
    with its tacnodal end first; other chains may come once from each end.
    Exploring more than `SUBCURVE_BUDGET` sequences of two or more blocks
    raises CurveGraphError.
    """
    data = _connected_data(g)
    tacnodes, table, leaving = data.tacnodes, data.table, data.leaving
    explored = 0

    def paths(first: int, x0: int, seen: int) -> Iterator[tuple[tuple, int, int]]:
        """(chain, union, q) of each path of blocks that enters `first` at
        the point x0 and leaves its last block at q; `chain` is (last block,
        chain before it).

        Consecutive blocks of a chain share exactly their linking tacnode and
        other blocks share no point, so a step leaves through the tacnode
        `at` into a block disjoint from the path whose other point is not in
        `seen`: the points met so far, and x0 unless the path may close there.
        """
        nonlocal explored
        q = (table[first] ^ 1 << x0).bit_length() - 1
        stack = [((first, None), first, q, seen | 1 << q)]
        while stack:
            chain, used, at, seen = stack.pop()
            yield chain, used, at
            if not tacnodes >> at & 1:
                continue
            for b in leaving[at]:
                j = table[b] ^ 1 << at
                if b & used or j & seen:
                    continue
                explored += 1
                if explored > SUBCURVE_BUDGET:
                    raise CurveGraphError(
                        f"chain search on {data.n} components explores more than "
                        f"{SUBCURVE_BUDGET} block sequences"
                    )
                stack.append(((b, chain), used | b, j.bit_length() - 1, seen | j))

    # Open chains: a path from x0 to q is a chain whose union meets the rest
    # of the curve in x0 and q.  Two tacnodal ends make no chain, so x0 is a
    # node, and a tacnodal q makes the chain weak.
    for first, cross in table.items():
        nodal = cross & ~tacnodes
        if cross.bit_count() != 2 or not nodal:
            continue
        x0 = (nodal & -nodal).bit_length() - 1
        for chain, union, q in paths(first, x0, 1 << x0):
            tacnodal = tacnodes >> q & 1
            if weak is not None and weak != bool(tacnodal):
                continue
            (a, b), (c, d) = data.end_bits[x0], data.end_bits[q]
            ends = (a if union >> a & 1 else b, c if union >> c & 1 else d)
            if not _chain_ample(data, union, 1 << x0 | 1 << q, ends, 0):
                continue
            if tacnodal:
                yield False, True, _blocks(chain)[::-1], (q, x0)
            else:
                yield False, False, _blocks(chain), (x0, q)

    # Closed chains: the whole curve, cut at a closing node (a chain) or
    # tacnode (a weak chain).  L genus-one blocks joined in a row by L - 1
    # tacnodes have arithmetic genus 2L - 1, so a closing `ci` can close a
    # chain only if pa - delta(ci) is odd.
    pa = data.genus
    cover = None
    for ci, (a, b) in enumerate(data.end_bits):
        closing_weak = data.deltas[ci] == DELTA[TACNODE]
        if (pa - data.deltas[ci]) % 2 == 0 or (weak is not None and weak != closing_weak):
            continue
        if cover is None:
            cover = reduce(int.__or__, itertools.chain.from_iterable(leaving.values()), 0)
        excl = 1 << ci
        # a chain of length 1 is the whole curve cut at `ci`
        if (
            pa - data.deltas[ci] == 1
            and data.connected(data.all_mask, drop=ci)
            and _chain_ample(data, data.all_mask, 0, (a, b), excl)
        ):
            yield True, closing_weak, [data.all_mask], (ci,)
        # A longer chain is a path from `ci` back to `ci`, where it stops: the
        # blocks `ci` leaves meet the path.  Each of its points leaves two of
        # its blocks, so its union has no crossings and, the curve being
        # connected, is the whole curve; unless the indexed blocks cover the
        # curve, no `ci` can close one and the walk is skipped.
        if cover != data.all_mask:
            continue
        for first in leaving.get(ci, ()):
            for chain, union, q in paths(first, ci, 0):
                if q == ci and _chain_ample(data, union, 0, (a, b), excl):
                    yield True, closing_weak, _blocks(chain), (ci,)


def _find_chains(g: CurveGraph) -> tuple[ChainRecord, ...]:
    """Every open and closed (weak) elliptic chain, each once, kept as the
    `chains` of the graph's record."""
    data = _graph_data(g)
    if data.chains is not None:
        return data.chains
    records: dict[tuple, ChainRecord] = {}
    names: dict[int, tuple[str, ...]] = {}  # one id tuple per block, shared by its records
    for closed, weak, seq, ends in _chain_hits(g):
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
        key = (closed, weak, fwd, ends)
        if key not in records:
            records[key] = ChainRecord(closed, weak, len(seq), fwd, ends)
    data.chains = tuple(
        sorted(records.values(), key=lambda r: (r.closed, r.weak, r.length, r.blocks, r.ends))
    )
    return data.chains


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


class RosaryRecord(_Record):
    """A maximal open rosary, or the whole curve as a (possibly broken) cycle.

    For open rosaries `length` counts beads and `ends` the two attachment
    intersections.  For closed records `length` counts tacnodal junctions, so
    the genus is always length + 1 regardless of broken beads.
    """

    __slots__ = ("closed", "beads", "length", "broken_beads", "ends")

    def __init__(self, closed: bool, beads: tuple[str, ...], length: int,
                 broken_beads: int = 0, ends: tuple[int, ...] = ()) -> None:
        self._init(closed, beads, length, broken_beads, ends)


def _bead_walk(g: CurveGraph) -> tuple[Optional[RosaryRecord], tuple[RosaryRecord, ...]]:
    """The bead cycle, when the whole curve is one, and the maximal
    tacnode-linked runs of beads that have a node at both ends.

    A bead is a smooth rational component with two branches, neither on a
    self-intersection; the record gives each bead's two intersections (its
    `flips`) and their other ends.  One walk covers the strands, each a
    maximal sequence of beads that meet in turn, with the intersection
    entering each bead; a cyclic strand is walked from its least id, leaving
    that bead through its later intersection.  The nodes cut each strand into
    runs.  When one cyclic strand is the whole curve, every run counts, in
    the walk's direction and with sorted ends; otherwise a run needs two
    beads and starts at its end bead that comes first in component order.
    Runs are sorted by their beads.  The result is the `beads` slot of the
    graph's record, so each graph is walked once.
    """
    data = _graph_data(g)
    if data.beads is not None:
        return data.beads
    ids, end_bits, tacnodes = data.ids, data.end_bits, data.tacnodes
    # bead k -> (i, the other end of i, a + b - k) for both its intersections i, ascending
    beads: dict[int, tuple[tuple[int, int], tuple[int, int]]] = {}
    for k, (h, loops, flips) in enumerate(zip(data.contrib, data.loops, data.flips)):
        if h == 0 and not loops and flips.bit_count() == 2:
            low = flips & -flips
            i, j = low.bit_length() - 1, (flips ^ low).bit_length() - 1
            beads[k] = ((i, sum(end_bits[i]) - k), (j, sum(end_bits[j]) - k))
    seen: set[int] = set()

    def strand(k: int, back: int) -> tuple[list[int], list[int]]:
        # links[t] enters order[t]; the last link leaves the last bead
        order, links = [], [back]
        while k in beads and k not in seen:
            seen.add(k)
            order.append(k)
            p, q = beads[k]
            i, k = q if p[0] == links[-1] else p
            links.append(i)
        return order, links

    strands = []
    for k, ends in beads.items():
        for i, other in ends:
            if k not in seen and other not in beads:
                strands.append(strand(k, i))
    closed = None
    # the beads that no open strand reaches lie on cycles
    for k in sorted(beads, key=ids.__getitem__) if len(seen) < len(beads) else ():
        if k in seen:
            continue
        order, links = strand(k, beads[k][0][0])
        n = len(order)
        cuts = [t for t in range(n) if not tacnodes >> links[t] & 1]
        if n == data.n:
            closed = RosaryRecord(True, tuple(map(ids.__getitem__, order)), n - len(cuts), len(cuts))
        if cuts:  # as a path from its first node round to that node again
            t = cuts[0]
            strands.append((order[t:] + order[:t], links[t:n] + links[: t + 1]))

    runs = []
    for order, links in strands:
        cuts = [0] + [t for t in range(1, len(order)) if not tacnodes >> links[t] & 1]
        cuts.append(len(order))
        for t, u in zip(cuts, cuts[1:]):
            run, ends = order[t:u], (links[t], links[u])
            if (tacnodes >> ends[0] | tacnodes >> ends[1]) & 1:
                continue
            if closed is not None:
                ends = tuple(sorted(ends))
            elif len(run) < 2:
                continue
            elif run[-1] < run[0]:
                run, ends = run[::-1], ends[::-1]
            runs.append(RosaryRecord(False, tuple(map(ids.__getitem__, run)), len(run), ends=ends))
    runs.sort(key=lambda r: r.beads)
    data.beads = (closed, tuple(runs))
    return data.beads


def _c_closed_rosaries(g: CurveGraph) -> bool:
    """The rosary half of the c closed-orbit test, on the graph's record:
    every open rosary of two or more beads has exactly two, both branches of
    every tacnode lie on the beads of one of them, and every elliptic bridge
    is the bead pair of one of them."""
    data = _graph_data(g)
    pairs: dict[int, int] = {}  # bead -> the mask of its length-two rosary
    for r in _bead_walk(g)[1]:
        if r.length > 2:
            return False
        if r.length == 2:
            a, b = map(data.index.__getitem__, r.beads)
            pairs[a] = pairs[b] = 1 << a | 1 << b
    tac = data.tacnodes
    if any(tac >> i & 1 and not pairs.get(a, 0) >> b & 1 for i, (a, b) in enumerate(data.end_bits)):
        return False
    masks = set(pairs.values())
    return all(m in masks for m in _genus_one_masks(data))


def find_rosaries(g: CurveGraph) -> list[RosaryRecord]:
    """Maximal open rosaries (length >= 2), or the whole curve as a bead
    cycle: one `_bead_walk`."""
    _connected_data(g)
    closed, runs = _bead_walk(g)
    return [closed] if closed is not None else list(runs)


def open_rosaries(g: CurveGraph) -> list[RosaryRecord]:
    """All maximal open rosaries, including the runs of one bead inside a
    broken bead cycle: the runs of one `_bead_walk`."""
    return list(_bead_walk(g)[1])


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------


def classify(g: CurveGraph) -> StabilityFlags:
    """Evaluate every stability notion on a connected curve of genus >= 2.

    One pass over the components reads the genus-0 contact conditions, one
    loop over the subcurve table the genus-1 ones (a tacnode counts twice in
    the multiplicity) and whether an elliptic bridge exists: a table entry
    with two crossing points, no tacnode among them.  The flags live on the
    graph's record, so a repeated query on the same graph is free.
    """
    data = _connected_data(g)
    if data.flags is not None:
        return data.flags
    genus = data.genus
    if genus < 2:
        raise CurveGraphError("stability notions require arithmetic genus >= 2")

    tacnodes = data.tacnodes
    genus0_plain = genus0_mult = genus1_two_points = genus1_three_mult = True
    bridge = False
    # a connected genus-0 subcurve is a tree of smooth rational components with
    # no self-intersection, joined by nodes; if each has >= 3 points, t have >= t + 2
    for h, loops, flips in zip(data.contrib, data.loops, data.flips):
        if h == 0 and not loops:
            points = flips.bit_count()
            genus0_plain = genus0_plain and points >= 3
            genus0_mult = genus0_mult and points + (flips & tacnodes).bit_count() >= 3
    for cross in data.table.values():
        points = cross.bit_count()
        tac = cross & tacnodes
        genus1_two_points = genus1_two_points and points >= 2
        genus1_three_mult = genus1_three_mult and points + tac.bit_count() >= 3
        bridge = bridge or (points == 2 and not tac)

    has_tacnode = tacnodes != 0
    dm_stable = (not data.cusped) and (not has_tacnode) and genus0_plain
    pseudostable = (not has_tacnode) and genus0_plain and genus1_two_points
    c_semistable = genus0_mult and genus1_two_points
    c_stable = c_semistable and not has_tacnode and not bridge

    # h-semistable adds "no elliptic chain", h-stable "no weak one either";
    # curves of genus 2 have no chains; each search stops at its first chain
    h_semistable = h_stable = c_semistable and genus1_three_mult
    if h_semistable and genus >= 3:
        h_semistable = not any(_chain_hits(g, False))
        h_stable = h_semistable and not any(_chain_hits(g, True))

    data.flags = StabilityFlags(
        dm_stable, pseudostable, c_semistable, c_stable, h_semistable, h_stable
    )
    return data.flags


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
    closed, runs = _bead_walk(g)
    if closed is not None and not closed.broken_beads:
        return (arithmetic_genus(g) % 2 == 1, closed)
    long = [r for r in runs if r.length >= 2]
    return (bool(long), long[0] if long else None)


def aut_torus_rank(g: CurveGraph) -> int:
    """Rank of the automorphism torus of a closed-orbit curve.

    Counts one factor per length-two rosary (Chow side: equals the tacnode
    count), one per length-three rosary (Hilbert side: half the tacnodes in
    rosaries), and a single factor for an unbroken closed rosary of odd genus.
    """
    from . import basins  # deferred: basins builds on this module

    closed, runs = _bead_walk(g)
    if closed is not None and not closed.broken_beads:
        return 1 if arithmetic_genus(g) % 2 == 1 else 0
    if basins.is_c_closed_orbit(g):
        return sum(1 for r in runs if r.length == 2)
    if basins.is_h_closed_orbit(g):
        return sum(1 for r in runs if r.length == 3)
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
    """Decorated-graph isomorphism, by backtracking over `a`'s components in
    breadth-first order, with each graph's component profiles (genus, cusps,
    incident kinds) and (neighbour, kind) counts built once.  A component is
    tried only against the neighbours of a mapped neighbour's image, and
    checked only against itself and the components already mapped."""
    if len(a.components) != len(b.components) or len(a.intersections) != len(b.intersections):
        return False

    def tables(g: CurveGraph) -> tuple[dict[str, tuple], dict[str, dict[tuple[str, str], int]]]:
        kinds: dict[str, list[str]] = {c.id: [] for c in g.components}
        adj: dict[str, dict[tuple[str, str], int]] = {c.id: {} for c in g.components}
        for x in g.intersections:
            for cid, _ in x.ends:
                kinds[cid].append(x.kind)
            ca, cb = x.components()
            adj[ca][cb, x.kind] = adj[ca].get((cb, x.kind), 0) + 1
            if ca != cb:
                adj[cb][ca, x.kind] = adj[cb].get((ca, x.kind), 0) + 1
        return {c.id: (c.genus, c.cusps, tuple(sorted(kinds[c.id]))) for c in g.components}, adj

    (prof_a, adj_a), (prof_b, adj_b) = tables(a), tables(b)
    if sorted(prof_a.values()) != sorted(prof_b.values()):
        return False
    order: list[str] = []
    parent: dict[str, Optional[str]] = {}  # None: the first of a connected piece
    k = 0
    for root in sorted(prof_a):
        if root not in parent:
            parent[root] = None
            order.append(root)
        while k < len(order):
            ca = order[k]
            k += 1
            for nb in sorted({nb for nb, _ in adj_a[ca]} - parent.keys()):
                parent[nb] = ca
                order.append(nb)
    mapping: dict[str, str] = {}
    used: set[str] = set()

    def candidates(ca: str) -> Iterator[str]:
        p = parent[ca]
        pool = sorted(prof_b) if p is None else sorted({nb for nb, _ in adj_b[mapping[p]]})
        for cb in pool:
            if cb in used or prof_b[cb] != prof_a[ca]:
                continue
            want = {(cb if nb == ca else mapping[nb], kind): n
                    for (nb, kind), n in adj_a[ca].items() if nb == ca or nb in mapping}
            if want == {key: n for key, n in adj_b[cb].items() if key[0] == cb or key[0] in used}:
                yield cb

    # depth first without recursion: stack[i] yields the untried candidates
    # for order[i], which is mapped for every i but perhaps the last
    stack: list[Iterator[str]] = []
    while len(mapping) < len(order):
        if len(stack) == len(mapping):
            stack.append(candidates(order[len(mapping)]))
        cb = next(stack[-1], None)
        if cb is not None:
            mapping[order[len(stack) - 1]] = cb
            used.add(cb)
            continue
        stack.pop()
        if not stack:
            return False
        used.remove(mapping.pop(order[len(stack) - 1]))
    return True
