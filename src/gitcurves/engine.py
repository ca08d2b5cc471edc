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

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import comb
from typing import Optional, Sequence

from . import GitcurvesError
from .families import Configuration, OneParamSubgroup, Parametrization
from .monomials import Monomial, MonomialOrder, SparseMonomial, degree_monomials

#: most supported monomials a slice may enumerate.  A slice costs what it
#: enumerates and sorts, not its degree: at the budget, closed rosary
#: r = 3,333 at m = 2 and r = 396 at m = 5 each take under a second.
SLICE_BUDGET = 50_000

#: most degree-m monomials `IdealSlice.monomials` may list.  That listing holds
#: every monomial in every coordinate, supported or not, so it grows far past
#: the slice: closed rosary r = 8 at m = 5 lists 98,280 (1.3 s, 55 MB for the
#: whole `index --monomials` run) and r = 10 at m = 5 lists 278,256 (3.4 s,
#: 130 MB), while r = 10 at m = 8 would list 38.6 million.
LISTING_BUDGET = 300_000


class EngineError(GitcurvesError):
    pass


@dataclass(frozen=True)
class IdealSlice:
    """Standard monomials of the degree-m slice of a homogeneous ideal.

    `sparse` lists, in ascending order, the degree-m monomials supported on
    some component's coordinates, in sparse form, and `supported_standard`
    marks the ones outside the initial ideal.  Every other degree-m monomial
    restricts to zero on every component, so it is initial.

    The exponent-vector forms are built on first read: `supported` holds the
    same monomials as `sparse`, `monomials` lists all degree-m monomials in
    ascending order and `standard` marks the standard ones.  `monomials` and
    `standard` raise `EngineError` when there would be more than
    `LISTING_BUDGET`.
    """

    degree: int
    order: MonomialOrder
    sparse: tuple[SparseMonomial, ...]
    supported_standard: tuple[bool, ...]

    def _dense(self, mono: SparseMonomial) -> Monomial:
        vec = [0] * self.order.nvars
        for c, e in mono:
            vec[c] = e
        return tuple(vec)

    @property
    def standard_count(self) -> int:
        return sum(self.supported_standard)

    @cached_property
    def supported(self) -> tuple[Monomial, ...]:
        return tuple(self._dense(mono) for mono in self.sparse)

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
        return [self._dense(m) for m, s in zip(self.sparse, self.supported_standard) if s]

    def initial_monomials(self) -> list[Monomial]:
        return [m for m, s in zip(self.monomials, self.standard) if not s]

    def standard_weight_sum(self) -> int:
        w = self.order.weights.weights
        return sum(
            w[c] * e for m, s in zip(self.sparse, self.supported_standard) if s for c, e in m
        )


def _sparse_monomials(par: Parametrization, m: int) -> list[SparseMonomial]:
    """The degree-m monomials in the coordinates of at least one component."""
    found: set[SparseMonomial] = set()
    for cm in par.maps:
        for combo in itertools.combinations_with_replacement(sorted(cm.coords()), m):
            mono: dict[int, int] = {}
            for c in combo:
                mono[c] = mono.get(c, 0) + 1
            found.add(tuple(mono.items()))
    return list(found)


def evaluate_slice(
    config: Configuration,
    m: int,
    order: Optional[MonomialOrder] = None,
) -> IdealSlice:
    """Standard monomials of the degree-m slice of the configuration's ideal.

    In split mode this is the slice of the rosary block: the kernel of
    evaluation on the parametrized components in the block coordinates.
    Only monomials supported on some component are enumerated; the others
    have zero columns and are initial by construction.  A slice whose count
    of supported monomials may exceed `SLICE_BUDGET` is rejected before
    anything is enumerated.

    The rows of the substitution map are the pairs (component, exponent of
    s), and a monomial's column has one entry per component holding all its
    coordinates.  With every coefficient 1 and every coordinate on at most
    two components, as in the three rosary families, each column is e_a (a
    half-edge at row a) or e_a + e_b (a negative edge a-b).  Greedy
    independence in the monomial order is then independence in the frame
    matroid of this signed graph (Zaslavsky): an edge or half-edge is
    independent of the earlier ones unless its class already holds an odd
    cycle or a half-edge, or it closes an even cycle.  A union-find with
    parity decides that.  Any other parametrization raises `EngineError`.
    """
    if m < 1:
        raise EngineError("slice degree must be >= 1")
    par = config.parametrization
    # counts a monomial once per component it is supported on: never below the
    # exact count, and closed-form
    size = sum(comb(len(cm.coords()) + m - 1, m) for cm in par.maps)
    if size > SLICE_BUDGET:
        raise EngineError(
            f"degree-{m} slice has up to {size} supported monomials; budget {SLICE_BUDGET}"
        )
    nvars = par.num_coordinates
    if order is None:
        order = MonomialOrder(OneParamSubgroup(tuple([0] * nvars)))
    if order.nvars != nvars:
        raise EngineError(
            f"order on {order.nvars} coordinates, parametrization has {nvars}"
        )

    # per component: its first row and the s-exponent of each coordinate;
    # per coordinate: the components holding it
    offsets: list[int] = []
    s_exps: list[dict[int, int]] = []
    holders: dict[int, list[int]] = {}
    nrows = 0
    for i, cm in enumerate(par.maps):
        offsets.append(nrows)
        nrows += m * cm.degree + 1
        s_exps.append({t.coord: t.s_exp for t in cm.terms})
        for t in cm.terms:
            if t.coeff != 1:
                raise EngineError(
                    f"coordinate x{t.coord} has coefficient {t.coeff}; "
                    "the slice kernel needs coefficient 1"
                )
            holders.setdefault(t.coord, []).append(i)
    for c, comps in holders.items():
        if len(comps) > 2:
            raise EngineError(
                f"coordinate x{c} lies on {len(comps)} components; "
                "the slice kernel admits at most 2"
            )

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

    monos = sorted(_sparse_monomials(par, m), key=order.sparse_key)
    standard: list[bool] = []
    for mono in monos:
        rows = [
            offsets[i] + sum(s_exps[i][c] * e for c, e in mono)
            for i in holders[mono[0][0]]
            if all(c in s_exps[i] for c, _ in mono)
        ]
        ra, pa = find(rows[0])
        if len(rows) == 1:  # a half-edge
            new = not full[ra]
            full[ra] = True
        else:
            rb, pb = find(rows[1])
            if ra != rb:
                new = not (full[ra] and full[rb])
                if new:
                    parent[ra], parity[ra] = rb, pa ^ pb ^ 1
                    full[rb] = full[ra] or full[rb]
            else:  # closes a cycle, odd when both ends have the same parity
                new = not full[ra] and pa == pb
                full[ra] = full[ra] or new
        standard.append(new)

    return IdealSlice(
        degree=m,
        order=order,
        sparse=tuple(monos),
        supported_standard=tuple(standard),
    )


# ---------------------------------------------------------------------------
# Hilbert-Mumford indices
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IndexReport:
    """Exact index data of the degree-m Hilbert point under one weight vector.

    `slice` is the degree-m slice the index was computed from; in split mode
    it covers only the fully parametrized block.
    """

    m: int
    weight_sum: Fraction
    average: Fraction
    mu: Fraction
    standard_count: int
    expected_count: int
    count_matches_hilbert: bool
    slice: Optional[IdealSlice] = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class IndexSuite:
    reports: tuple[IndexReport, ...]
    chow_sign: Optional[int]


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
    g = config.genus
    n1 = config.num_coordinates
    if len(rho) != n1:
        raise EngineError(f"weight vector must have length {n1}")
    if config.is_split():
        if config.family != "open-rosary":
            raise EngineError("split mode supports only open-rosary configurations")
        split = config.split
        block_rho = rho.restrict(split.block_size)
        d_weights = set(rho.weights[split.block_size :])
        d_weights.add(rho.weights[split.attach_coords[0]])
        d_weights.add(rho.weights[split.attach_coords[1]])
        if len(d_weights) != 1:
            raise EngineError(
                "split mode requires a single weight on the D coordinates"
            )
        w_d = d_weights.pop()
        slice_ = evaluate_slice(config, m, MonomialOrder(block_rho))
        d_count = (4 * m - 1) * split.d_genus - 1
        weight_sum = Fraction(slice_.standard_weight_sum() + m * w_d * d_count)
        standard_count = slice_.standard_count + d_count
    else:
        slice_ = evaluate_slice(config, m, MonomialOrder(rho))
        weight_sum = Fraction(slice_.standard_weight_sum())
        standard_count = slice_.standard_count

    expected = hilbert_polynomial(g, m)
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

    Valid for 2-regular curves embedded by a complete linear system:
    (m-1) * [ (3-m) mu2 + (m/2 - 1) mu3 ].
    """
    if m < 2:
        raise EngineError("extrapolation applies for m >= 2")
    mm = Fraction(m)
    return (mm - 1) * ((3 - mm) * Fraction(mu2) + (mm / 2 - 1) * Fraction(mu3))


def chow_index_sign(mu2: Fraction, mu3: Fraction) -> int:
    """Sign of the Chow-point index: positive stable, zero strictly semistable."""
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
