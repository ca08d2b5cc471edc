"""Brute-force subcurve searches, kept as a test oracle.

Every predicate here sweeps all 2^n component subsets again, exactly as
`graphs` did before it read one shared subcurve table: the connected masks
are listed once, and the chain search rescans them for every closing
intersection with that intersection's delta left out of the genus (the full
genus of each mask is summed once and kept).  The
chain search joins blocks and checks ampleness on component ids, where
`graphs` works on bitmasks.  `subcurve_table` lists the genus-0 and genus-1
subcurves: its genus-1 rows are the library's table, and its genus-0 rows
check the genus-0 conditions that `graphs.classify` decides per component.
The tests compare the library against these functions.
"""

import itertools
from functools import lru_cache

from gitcurves.graphs import (
    NODE,
    TACNODE,
    ChainRecord,
    CurveGraphError,
    _graph_data,
    arithmetic_genus,
    crossing_intersections,
)


@lru_cache(maxsize=1)
def connected_masks(g):
    """All nonempty connected subset masks, ascending, listed once per graph."""
    data = _graph_data(g)
    return tuple(mask for mask in range(1, data.all_mask + 1) if data.connected(mask))


def pair_mask(data, i):
    a, b = data.end_bits[i]
    return (1 << a) | (1 << b)


@lru_cache(maxsize=1)
def _full_genera(data):
    """mask -> arithmetic genus of that subcurve, filled by `genus` for one record."""
    return {}


def genus(data, mask, exclude=frozenset()):
    """Arithmetic genus of the subcurve `mask`, ignoring intersections in `exclude`.

    The full genus sums over every intersection once per record and mask;
    an excluded intersection with both ends in `mask` then takes its delta off.
    """
    full = _full_genera(data)
    if mask not in full:
        total = sum(data.contrib[i] for i in range(data.n) if mask >> i & 1)
        total += sum(
            data.deltas[i]
            for i in range(len(data.end_bits))
            if pair_mask(data, i) & mask == pair_mask(data, i)
        )
        full[mask] = total - (bin(mask).count("1") - 1)
    return full[mask] - sum(
        data.deltas[i] for i in exclude if pair_mask(data, i) & mask == pair_mask(data, i)
    )


def subcurve_table(g):
    """The subcurve table of `graphs._GraphData` by testing every proper component subset."""
    data = _graph_data(g)
    return tuple(
        (mask, genus(data, mask), sum(1 << i for i, _ in data.crossings(mask)))
        for mask in connected_masks(g)
        if mask != data.all_mask and genus(data, mask) <= 1
    )


def genus_one_blocks(g, exclude):
    """Connected genus-one subcurves, the whole curve included, with the
    intersections in `exclude` (at most one) left out of genus and
    connectivity."""
    data = _graph_data(g)
    drop = next(iter(exclude)) if exclude else None
    out = []
    for mask in connected_masks(g):
        if genus(data, mask, exclude) != 1:
            continue
        if drop is not None and pair_mask(data, drop) & mask == pair_mask(data, drop):
            if not data.connected(mask, drop=drop):
                continue
        out.append(data.subset_of(mask))
    return out


def _genus_one_with_crossings(g, count):
    data = _graph_data(g)
    out = []
    for mask in connected_masks(g):
        if mask == data.all_mask:
            continue
        cross = data.crossings(mask)
        if len(cross) != count or not all(g.intersections[i].kind == NODE for i, _ in cross):
            continue
        if genus(data, mask) == 1:
            out.append(data.subset_of(mask))
    return sorted(out, key=lambda s: sorted(s))


def elliptic_tails(g):
    return _genus_one_with_crossings(g, 1)


def elliptic_bridges(g):
    return _genus_one_with_crossings(g, 2)


def bridge_links(g):
    bridges = elliptic_bridges(g)
    links = [b for b in bridges if not any(o < b for o in bridges)]
    for a, b in itertools.combinations(links, 2):
        if a & b:
            raise CurveGraphError("overlapping minimal elliptic bridges")
    return links


def genus_contacts(g):
    """(points, multiplicity) pairs of all proper genus-0 / genus-1 subcurves."""
    data = _graph_data(g)
    zero, one = [], []
    for mask in connected_masks(g):
        if mask == data.all_mask:
            continue
        h = genus(data, mask)
        if h > 1:
            continue
        cross = data.crossings(mask)
        (zero if h == 0 else one).append(
            (len(cross), sum(data.deltas[i] for i, _ in cross))
        )
    return zero, one


def joins(g, a, b):
    """Indices of the intersections with one end in `a` and the other in `b`."""
    out = []
    for i, x in enumerate(g.intersections):
        ca, cb = x.components()
        if (ca in a and cb in b) or (ca in b and cb in a):
            out.append(i)
    return out


def chain_ample(g, blocks, mark_comps, exclude):
    """Twice the local arithmetic genus, minus two, plus the branch-weighted
    contact inside the chain, plus end marks, is positive on every component."""
    union = frozenset().union(*blocks)
    for cid in union:
        c = g.component(cid)
        pa = c.genus + c.cusps
        contact = 0
        for i, x in enumerate(g.intersections):
            if i in exclude:
                continue
            a, b = x.components()
            if a == cid and b == cid:
                pa += x.delta
            elif a == cid and b in union:
                contact += x.delta
            elif b == cid and a in union:
                contact += x.delta
        if 2 * pa - 2 + contact + sum(1 for m in mark_comps if m == cid) <= 0:
            return False
    return True


def chain_sequences(g, blocks, seq, exclude):
    """`seq` and its extensions by disjoint blocks, each joined to the last by
    exactly one tacnode and to no earlier block."""
    yield list(seq)
    used = frozenset().union(*seq)
    for b in blocks:
        if b & used:
            continue
        js = [j for j in joins(g, seq[-1], b) if j not in exclude]
        if len(js) != 1 or g.intersections[js[0]].kind != TACNODE:
            continue
        if any(j not in exclude for earlier in seq[:-1] for j in joins(g, earlier, b)):
            continue
        seq.append(b)
        yield from chain_sequences(g, blocks, seq, exclude)
        seq.pop()


def find_chains(g):
    """Open and closed (weak) elliptic chains, each closing intersection
    searched over its own rescan of the connected masks."""
    all_ids = frozenset(g.ids())
    records = {}

    def emit(rec):
        fwd = rec.blocks
        rev = tuple(reversed(rec.blocks))
        if rec.closed and rev < fwd:
            rec = ChainRecord(rec.closed, rec.weak, rec.length, rev, rec.ends)
        elif not rec.closed and not rec.weak:
            if rev < fwd or (rev == fwd and rec.ends[::-1] < rec.ends):
                rec = ChainRecord(rec.closed, rec.weak, rec.length, rev, rec.ends[::-1])
        records.setdefault((rec.closed, rec.weak, rec.blocks, rec.ends), rec)

    blocks = genus_one_blocks(g, frozenset())
    for first in blocks:
        for seq in chain_sequences(g, blocks, [first], frozenset()):
            cross = crossing_intersections(g, frozenset().union(*seq))
            if len(cross) != 2:
                continue
            (i1, e1), (i2, e2) = cross
            c1 = g.intersections[i1].ends[e1][0]
            c2 = g.intersections[i2].ends[e2][0]
            placements = []
            if c1 in seq[0] and c2 in seq[-1]:
                placements.append(((i1, c1), (i2, c2)))
            if len(seq) > 1 and c2 in seq[0] and c1 in seq[-1]:
                placements.append(((i2, c2), (i1, c1)))
            for (ip, cp), (iq, cq) in placements:
                if not chain_ample(g, seq, [cp, cq], frozenset()):
                    continue
                kp, kq = g.intersections[ip].kind, g.intersections[iq].kind
                blocks_t = tuple(tuple(sorted(b)) for b in seq)
                if kp == NODE and kq == NODE:
                    emit(ChainRecord(False, False, len(seq), blocks_t, (ip, iq)))
                elif kp == TACNODE and kq == NODE:
                    emit(ChainRecord(False, True, len(seq), blocks_t, (ip, iq)))
                elif kp == NODE and kq == TACNODE:
                    emit(
                        ChainRecord(
                            False, True, len(seq), tuple(reversed(blocks_t)), (iq, ip)
                        )
                    )

    for ci, cx in enumerate(g.intersections):
        exclude = frozenset([ci])
        cblocks = genus_one_blocks(g, exclude)
        ca, cb = cx.components()
        for first in cblocks:
            if ca not in first and cb not in first:
                continue
            for seq in chain_sequences(g, cblocks, [first], exclude):
                if frozenset().union(*seq) != all_ids:
                    continue
                if len(seq) == 1:
                    ok = ca in seq[0] and cb in seq[0]
                else:
                    ok = (ca in seq[0] and cb in seq[-1]) or (cb in seq[0] and ca in seq[-1])
                if not ok or not chain_ample(g, seq, [ca, cb], exclude):
                    continue
                blocks_t = tuple(tuple(sorted(b)) for b in seq)
                emit(ChainRecord(True, cx.kind == TACNODE, len(seq), blocks_t, (ci,)))
    return tuple(
        sorted(records.values(), key=lambda r: (r.closed, r.weak, r.length, r.blocks, r.ends))
    )


def classify_flags(g):
    """The six stability flags of `graphs.classify`, from the sweeps above."""
    genus_g = arithmetic_genus(g)
    has_cusp = any(c.cusps > 0 for c in g.components)
    has_tacnode = any(x.kind == TACNODE for x in g.intersections)
    zero, one = genus_contacts(g)
    genus0_plain = all(pts >= 3 for pts, _ in zero)
    c_semistable = all(mult >= 3 for _, mult in zero) and all(pts >= 2 for pts, _ in one)
    chains = find_chains(g) if genus_g >= 3 else []
    h_semistable = (
        c_semistable
        and all(mult >= 3 for _, mult in one)
        and not any(not r.weak for r in chains)
    )
    return {
        "dm_stable": not has_cusp and not has_tacnode and genus0_plain,
        "pseudostable": not has_tacnode and genus0_plain and all(pts >= 2 for pts, _ in one),
        "c_semistable": c_semistable,
        "c_stable": c_semistable and not has_tacnode and not elliptic_bridges(g),
        "h_semistable": h_semistable,
        "h_stable": h_semistable and not any(r.weak for r in chains),
    }
