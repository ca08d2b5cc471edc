"""Degree-truncated ideal slices and Hilbert-Mumford indices, exactly.

For a monomially parametrized configuration the degree-m slice of its ideal
is the kernel of the substitution map sending each degree-m coordinate
monomial to the tuple of binary forms it restricts to on the components.
A monomial is standard, outside the initial ideal of that kernel under a
weighted monomial order, when its column is independent of the columns of
all smaller monomials.  The standard monomials give the Hilbert-Mumford
index of the m-th Hilbert point as an exact rational:

    mu = m * P(m) / (N+1) * sum(r_i)  -  sum of standard-monomial weights.

No floating point is used anywhere in this module.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import comb
from operator import attrgetter, itemgetter
from typing import Optional, Sequence

from . import GitcurvesError, _Record, _set
from .families import FAMILIES, UNIT, Configuration, OneParamSubgroup, Parametrization
from .monomials import Monomial, MonomialOrder, degree_monomials

#: most supported monomials a slice may have, by the closed-form bound.  The
#: slice lists none of them; at the budget, closed rosary r = 3,333 at m = 2
#: takes 0.05-0.07 s and r = 396 at m = 5 takes 0.007-0.012 s (default order,
#: medians of five runs in each of 12 rounds on a shared host; Python 3.11,
#: one core of a 2-core Xeon host).
SLICE_BUDGET = 50_000

#: most degree-m monomials `IdealSlice.monomials` may list.  That listing holds
#: every monomial in every coordinate, supported or not, so it grows far past
#: the slice: closed rosary r = 8 at m = 5 lists 98,280 (1.3 s, 55 MB for the
#: whole `index --monomials` run) and r = 10 at m = 5 lists 278,256 (3.4 s,
#: 130 MB), while r = 10 at m = 8 would list 38.6 million.
LISTING_BUDGET = 300_000


class EngineError(GitcurvesError):
    pass


class IdealSlice(_Record):
    """Standard monomials of the degree-m slice of a homogeneous ideal.

    `standard_keys` lists, in ascending order, the standard degree-m
    monomials, each as one int sort key.  With n coordinates and S = n^m, a
    monomial whose coordinate indices, listed with multiplicity, are
    q_0 <= ... <= q_{m-1} has the key

        weight * S + (S - 1 - sum(q_p * n^(m-1-p))).

    Among monomials of one degree a larger monomial has a lexicographically
    smaller index sequence, so ascending keys are ascending monomials:
    weight first, then index sequence descending.  `key // S` is the weight.

    The listing is derived on first read: `monomials` lists all degree-m
    monomials in ascending order and `standard` marks the standard ones.
    Both raise `EngineError` when there would be more than `LISTING_BUDGET`.
    """

    __slots__ = ("degree", "order", "standard_keys", "parametrization", "__dict__")

    def __init__(self, degree: int, order: MonomialOrder, standard_keys: tuple[int, ...],
                 parametrization: Parametrization) -> None:
        self._init(degree, order, standard_keys, parametrization)

    @cached_property
    def _key_base(self) -> int:
        """S = n^m: `key // S` is the weight, `key % S` codes the indices."""
        return self.order.nvars**self.degree

    def _dense(self, key: int) -> Monomial:
        n, base = self.order.nvars, self._key_base
        vec = [0] * n
        code = base - 1 - key % base
        for _ in range(self.degree):
            code, q = divmod(code, n)
            vec[q] += 1
        return tuple(vec)

    @property
    def standard_count(self) -> int:
        return len(self.standard_keys)

    @cached_property
    def monomials(self) -> tuple[Monomial, ...]:
        count = comb(self.order.nvars + self.degree - 1, self.degree)
        if count > LISTING_BUDGET:
            raise EngineError(
                f"degree-{self.degree} listing has {count} monomials; budget {LISTING_BUDGET}"
            )
        return tuple(
            self.order.sorted_ascending(list(degree_monomials(self.order.nvars, self.degree)))
        )

    @cached_property
    def standard(self) -> tuple[bool, ...]:
        std = set(self.standard_monomials())
        return tuple(m in std for m in self.monomials)

    def standard_monomials(self) -> list[Monomial]:
        return list(map(self._dense, self.standard_keys))

    def initial_monomials(self) -> list[Monomial]:
        return [m for m, s in zip(self.monomials, self.standard) if not s]

    def standard_weight_sum(self) -> int:
        base = self._key_base
        return sum(key // base for key in self.standard_keys)


def _shape_tables(
    shape: tuple[tuple[int, int, int, int, int], ...], m: int, n: int, span: int
) -> tuple[dict[int, int], dict[int, dict[int, int]]]:
    """The least partial keys of one component shape, as `free` and `pure`.

    `shape` lists the component's terms in coordinate order as (weight,
    coordinate index q, s exponent, partner, partner's s exponent), the
    partner being -1 for a term on this component only.  With S = n^m, a term
    at position p adds weight * S - q * n^(m-1-p) to the partial key.  A
    dynamic program over the terms, from the last term and position back,
    keeps the least partial key (the sum over positions p' >= p) per state
    of the sequences at positions p.. with indices >= j: `free` maps the
    s-exponent sum a of the half-edges to it, and `pure[c]` maps a * span +
    b, b the s-exponent sum on partner c, to it for the sequences whose terms
    all lie on c too.
    """
    base = n**m
    places = [n ** (m - 1 - p) for p in range(m)]
    # tables[p] covers the positions p.. with indices >= the current j
    tables: list[tuple[dict, dict]] = [({}, {}) for _ in range(m)]
    for wt, q, te, c, ce in reversed(shape):
        wt *= base
        shift = te * span + ce
        t = wt - q * places[m - 1]
        free, pure = tables[m - 1]
        if c < 0:
            dst, code = free, te
        else:
            dst, code = pure.setdefault(c, {}), shift
        if t < dst.get(code, t + 1):
            dst[code] = t
        for p in range(m - 2, -1, -1):
            t = wt - q * places[p]
            free, pure = tables[p]
            src_free, src_pure = tables[p + 1]
            for a, v in src_free.items():
                a += te
                v += t
                if v < free.get(a, v + 1):
                    free[a] = v
            for cc, src in src_pure.items():
                if cc == c:
                    dst = pure.setdefault(c, {})
                    for code, v in src.items():
                        code += shift
                        v += t
                        if v < dst.get(code, v + 1):
                            dst[code] = v
                else:
                    for code, v in src.items():
                        a = code // span + te
                        v += t
                        if v < free.get(a, v + 1):
                            free[a] = v
    return tables[0]


class _SliceData:
    """The weight-free tables of a parametrization's slice kernel, kept in its
    `_data` slot by `_slice_data` and freed with it.  Nothing here depends on
    the weights or on m.  Equal parametrizations that are different objects
    each build their own.

    The build refuses, as the kernel does, a coefficient other than 1 and a
    coordinate on three or more components, and then stores nothing.
    `degrees[k]` is component k's degree and `components[k]` is (step, rows,
    partners): `rows` lists its terms in coordinate order as (coordinate, s
    exponent, partner label, partner's s exponent), the partners labelled 0,
    1, ... in order of appearance (`partners` lists them) and -1, with the
    term's own s exponent, for a coordinate on k only; `step` is the first
    position whose s exponent differs from position 0's (0 if none).
    """

    __slots__ = ("degrees", "components")

    def __init__(self, par: Parametrization) -> None:
        holders: dict[int, list[tuple[int, int]]] = {}
        for k, cm in enumerate(par.maps):
            for t in cm.terms:
                if t.coeff is not UNIT and t.coeff != 1:
                    raise EngineError(
                        f"coordinate x{t.coord} has coefficient {t.coeff}; "
                        "the slice kernel needs coefficient 1"
                    )
                holders.setdefault(t.coord, []).append((k, t.s_exp))
        for c, held in holders.items():
            if len(held) > 2:
                raise EngineError(
                    f"coordinate x{c} lies on {len(held)} components; "
                    "the slice kernel admits at most 2"
                )
        self.degrees = [cm.degree for cm in par.maps]
        self.components = []
        for k, cm in enumerate(par.maps):
            partners: dict[int, int] = {}
            rows = []
            for t in sorted(cm.terms, key=attrgetter("coord")):
                held = holders[t.coord]
                c, ce = held[-1] if held[0][0] == k else held[0]  # c == k: on k only
                label = -1 if c == k else partners.setdefault(c, len(partners))
                rows.append((t.coord, t.s_exp, label, ce))
            e0 = rows[0][1]
            step = next((j for j, row in enumerate(rows) if row[1] != e0), 0)
            self.components.append((step, rows, list(partners)))


def _slice_data(par: Parametrization) -> _SliceData:
    data = getattr(par, "_data", None)
    if data is None:
        data = _SliceData(par)
        _set(par, "_data", data)  # not pickled: it is rebuilt on first use
    return data


def _candidates(par: Parametrization, m: int, order: MonomialOrder) -> list[tuple[int, int, int]]:
    """(key, a, -1) for the least supported half-edge at each row a, and
    (key, a, b) for the least edge on each pair of rows a < b.

    A monomial whose coordinates all lie on component k and on one other
    component c is an edge; any other monomial on k is a half-edge at row
    offset_k + s-sum.  Only these candidates can be standard: a later
    half-edge at the same row meets a class that already holds a half-edge,
    and a later edge on the same rows finds both classes full or the rows in
    one class with opposite parity; a dependent element changes nothing.

    `_shape_tables` runs once per component shape.  Every partial sequence in
    one of its states has the same number u of positions and the same
    s-exponent sum a, so replacing each weight w by w + A + beta * e (e the
    term's s exponent) adds (u * A + beta * a) * S to every entry of the
    state, and adding q0 to every coordinate index subtracts q0 *
    sum(n^(m-1-p)); neither moves a minimiser.  A component's shape is
    therefore taken with q0 its least coordinate, beta = (w_j - w_0) //
    (e_j - e_0) for the first term j whose s exponent differs from that of
    term 0 (0 if none does), A = w_0 - beta * e_0, and its partners numbered
    in order of appearance; the floor division gives every weight vector of
    one class {w + alpha + gamma * e} the same shape.  Each component of a
    shape gets the tables translated by its own A, beta, q0, row offsets and
    partners.  Edges are read off their lower component.

    The terms, their partners and the first j come from the parametrization's
    `_SliceData`, in coordinate order.  A call derives only what depends on
    the weights or on m: A, beta, the coordinate offsets, the row offsets and
    the shape keys.
    """
    data = _slice_data(par)
    offsets = []
    span = 0  # the number of rows
    for d in data.degrees:
        offsets.append(span)
        span += m * d + 1
    n = order.nvars
    base = n**m
    place_sum = sum(n**p for p in range(m))
    w = order.weights.weights
    # shape -> (component, A, beta, q0, components by partner number)
    shapes: dict[tuple, list[tuple[int, int, int, int, list[int]]]] = {}
    for k, (step, rows, partners) in enumerate(data.components):
        q0, e0, _, _ = rows[0]
        w0 = w[q0]
        beta = 0
        if step:
            cj, ej, _, _ = rows[step]
            beta = (w[cj] - w0) // (ej - e0)
        lift = w0 - beta * e0
        shape = tuple([
            (w[c] - lift - beta * e, c - q0, e, label, ce) for c, e, label, ce in rows
        ])
        shapes.setdefault(shape, []).append((k, lift, beta, q0, partners))
    out: list[tuple[int, int, int]] = []
    for shape, members in shapes.items():
        free, pure = _shape_tables(shape, m, n, span)
        for k, lift, beta, q0, partners in members:
            top = base - 1 + m * lift * base - q0 * place_sum
            step = beta * base
            off = offsets[k]
            out += [(top + v + step * a, off + a, -1) for a, v in free.items()]
            for label, codes in pure.items():
                c = partners[label]
                if c > k:
                    off_c = offsets[c]
                    for code, v in codes.items():
                        a, b = divmod(code, span)
                        out.append((top + v + step * a, off + a, off_c + b))
    return out


def check_slice_budget(par: Parametrization, m: int) -> None:
    """Refuse a degree-m slice (m >= 1) that may exceed `SLICE_BUDGET`, by a
    closed-form bound from the parametrization alone, never below the exact
    count."""
    _check_slice_size(sum(comb(len(cm.terms) + m - 1, m) for cm in par.maps), m)


def check_family_budget(family: str, values: Sequence[int], m: int) -> None:
    """`check_slice_budget` on a family before it is built: its `_maps` check gives
    the term counts of its maps, and raises `FamilyError` for bad parameters."""
    sizes = FAMILIES[family][2](*values)
    _check_slice_size(sum(n * comb(k + m - 1, m) for k, n in sizes.items()), m)


def _check_slice_size(size: int, m: int) -> None:
    if size > SLICE_BUDGET:
        raise EngineError(
            f"degree-{m} slice has up to {size} supported monomials; budget {SLICE_BUDGET}"
        )


def evaluate_slice(
    config: Configuration,
    m: int,
    order: Optional[MonomialOrder] = None,
) -> IdealSlice:
    """Standard monomials of the degree-m slice of the configuration's ideal.

    In split mode this is the slice of the rosary block: the kernel of
    evaluation on the parametrized components in the block coordinates.
    Monomials not supported on some component have zero columns and are
    initial by construction.  A slice whose count of supported monomials may
    exceed `SLICE_BUDGET` is rejected before anything is computed.  Each
    monomial is one int sort key (weight, then coordinate indices descending;
    see `IdealSlice`), and only the standard keys are kept.

    The rows of the substitution map are the pairs (component, exponent of
    s), and a monomial's column has one entry per component holding all its
    coordinates.  With every coefficient 1 and every coordinate on at most
    two components, as in the three rosary families, each column is e_a (a
    half-edge at row a) or e_a + e_b (a negative edge a-b).  Greedy
    independence in the monomial order is then independence in the frame
    matroid of this signed graph (Zaslavsky): an edge or half-edge is
    independent of the earlier ones unless its class already holds an odd
    cycle or a half-edge, or it closes an even cycle.  So at most the least
    half-edge at each row and the least edge on each pair of rows can be
    independent; `_candidates` finds those without listing the supported
    monomials, by one dynamic program per component shape (components whose
    weights and coordinates agree up to the shifts w -> w + A + beta * e and
    q -> q + q0 share one), and a union-find with parity decides them
    in ascending order.  Any other parametrization raises `EngineError`.

    What depends only on the parametrization (the checks on coefficients and
    on components per coordinate, the degrees, each component's terms with
    their partner components, and the partner labels) is its `_SliceData`,
    built by the first slice that passes the budget and order checks and kept
    on it.  The weights, the shape keys and every table of the dynamic
    programs are derived again on every call.
    """
    if m < 1:
        raise EngineError("slice degree must be >= 1")
    par = config.parametrization
    check_slice_budget(par, m)
    nvars = par.num_coordinates
    if order is None:
        order = MonomialOrder(OneParamSubgroup(tuple([0] * nvars)))
    if order.nvars != nvars:
        raise EngineError(
            f"order on {order.nvars} coordinates, parametrization has {nvars}"
        )

    degrees = _slice_data(par).degrees
    nrows = m * sum(degrees) + len(degrees)  # the rows of the substitution map
    parent = list(range(nrows))
    parity = [0] * nrows  # parity of the edge path from a row to its parent
    full = [False] * nrows  # per root: the class holds an odd cycle or a half-edge

    def find(a: int) -> tuple[int, int]:
        """Root of row a's class, and the parity of a relative to it."""
        path = []
        while parent[a] != a:
            path.append(a)
            a = parent[a]
        p = 0
        for x in reversed(path):
            p ^= parity[x]
            parent[x], parity[x] = a, p
        return a, p

    # each key is one monomial's, so the keys alone order the candidates; most
    # rows looked up are roots, read off inline, and only other rows call `find`
    standard: list[int] = []
    for key, a, b in sorted(_candidates(par, m, order), key=itemgetter(0)):
        if parent[a] == a:
            ra, pa = a, 0
        else:
            ra, pa = find(a)
        if b < 0:  # a half-edge
            if not full[ra]:
                full[ra] = True
                standard.append(key)
            continue
        if parent[b] == b:
            rb, pb = b, 0
        else:
            rb, pb = find(b)
        if ra != rb:
            if not (full[ra] and full[rb]):
                parent[ra], parity[ra] = rb, pa ^ pb ^ 1
                full[rb] = full[ra] or full[rb]
                standard.append(key)
        elif pa == pb and not full[ra]:  # closes an odd cycle
            full[ra] = True
            standard.append(key)

    return IdealSlice(degree=m, order=order, standard_keys=tuple(standard), parametrization=par)


# ---------------------------------------------------------------------------
# Hilbert-Mumford indices
# ---------------------------------------------------------------------------


class IndexReport(_Record):
    """Exact index data of the degree-m Hilbert point under one weight vector.

    `slice` is the degree-m slice the index was computed from; in split mode
    it covers only the fully parametrized block.
    """

    __slots__ = ("m", "weight_sum", "average", "mu", "standard_count", "expected_count",
                 "count_matches_hilbert", "slice")
    _fields = __slots__[:-1]  # the slice is not compared, hashed or printed

    def __init__(self, m: int, weight_sum: Fraction, average: Fraction, mu: Fraction,
                 standard_count: int, expected_count: int, count_matches_hilbert: bool,
                 slice: Optional[IdealSlice] = None) -> None:
        self._init(m, weight_sum, average, mu, standard_count, expected_count,
                   count_matches_hilbert, slice)


class IndexSuite(_Record):
    __slots__ = ("reports", "chow_sign")

    def __init__(self, reports: tuple[IndexReport, ...], chow_sign: Optional[int]) -> None:
        self._init(reports, chow_sign)


def hilbert_polynomial(g: int, m: int) -> int:
    """Bicanonical Hilbert polynomial (4g-4)m + 1 - g."""
    return (4 * g - 4) * m + 1 - g


def hilbert_index(
    config: Configuration,
    rho: OneParamSubgroup,
    m: int,
) -> IndexReport:
    """Hilbert-Mumford index of the m-th Hilbert point with respect to rho.

    Fully parametrized configurations use the standard monomials of the
    degree-m slice directly.  Split open-rosary configurations add the
    Riemann-Roch count of sections supported on the abstract remainder D:
    (4m-1)*g_D - 1 monomials, each of weight m*w_D, where w_D is the common
    weight on the D coordinates.
    """
    if m < 2:
        raise EngineError("Hilbert points are taken in degree >= 2")
    check_slice_budget(config.parametrization, m)  # before the genus builds the graph's record
    n1 = config.num_coordinates
    if len(rho) != n1:
        raise EngineError(f"weight vector must have length {n1}")
    if config.is_split():
        if config.family != "open-rosary":
            raise EngineError("split mode supports only open-rosary configurations")
        split = config.split
        block_rho = rho.restrict(split.block_size)
        w_d = split.d_weight(rho)
        if w_d is None:
            raise EngineError(
                "split mode requires a single weight on the D coordinates"
            )
        slice_ = evaluate_slice(config, m, MonomialOrder(block_rho))
        d_count = (4 * m - 1) * split.d_genus - 1
        weight_sum = Fraction(slice_.standard_weight_sum() + m * w_d * d_count)
        standard_count = slice_.standard_count + d_count
    else:
        slice_ = evaluate_slice(config, m, MonomialOrder(rho))
        weight_sum = Fraction(slice_.standard_weight_sum())
        standard_count = slice_.standard_count

    expected = hilbert_polynomial(config.genus, m)
    average = Fraction(m * standard_count * rho.total(), n1)
    return IndexReport(
        m=m,
        weight_sum=weight_sum,
        average=average,
        mu=average - weight_sum,
        standard_count=standard_count,
        expected_count=expected,
        count_matches_hilbert=standard_count == expected,
        slice=slice_,
    )


def extrapolate_index(mu2: Fraction, mu3: Fraction, m: int) -> Fraction:
    """Index of the degree-m Hilbert point from the degree 2 and 3 indices.

    The quadratic (m-1) * [ (3-m) mu2 + (m/2 - 1) mu3 ] through 0, mu2, mu3 at
    m = 1, 2, 3: valid when the initial ideal is 2-regular (Bayer-Stillman).
    For generic weights the exact index often departs from it from m = 4 or 5 on.
    """
    if m < 2:
        raise EngineError("extrapolation applies for m >= 2")
    mm = Fraction(m)
    return (mm - 1) * ((3 - mm) * Fraction(mu2) + (mm / 2 - 1) * Fraction(mu3))


def chow_index_sign(mu2: Fraction, mu3: Fraction) -> int:
    """Sign of the Chow-point index: positive stable, zero strictly semistable.

    The sign of mu3 - 2*mu2, twice the leading coefficient of `extrapolate_index`:
    it assumes the same 2-regular initial ideal (Bayer-Stillman)."""
    v = Fraction(mu3) - 2 * Fraction(mu2)
    return (v > 0) - (v < 0)


def point_index(nonzero_coordinates: Sequence[int], rho: OneParamSubgroup) -> Fraction:
    """max over supported coordinates of (-r_i + average weight)."""
    support = list(nonzero_coordinates)
    if not support:
        raise EngineError("point index needs a nonempty support")
    n1 = len(rho)
    if any(not 0 <= i < n1 for i in support):
        raise EngineError("support index out of range")
    avg = Fraction(rho.total(), n1)
    return max(-rho.weights[i] + avg for i in support)


def index_suite(
    config: Configuration,
    rho: OneParamSubgroup,
    degrees: Sequence[int],
) -> IndexSuite:
    """Index reports for several degrees, with the Chow sign when 2,3 appear."""
    reports = tuple(hilbert_index(config, rho, m) for m in degrees)
    by_m = {r.m: r for r in reports}
    sign = None
    if 2 in by_m and 3 in by_m:
        sign = chow_index_sign(by_m[2].mu, by_m[3].mu)
    return IndexSuite(reports=reports, chow_sign=sign)
