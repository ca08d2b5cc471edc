"""Degree-truncated ideal slices and Hilbert-Mumford indices, exactly.

For a monomially parametrized configuration the degree-m slice of its ideal
is the kernel of the substitution map sending each degree-m coordinate
monomial to the tuple of binary forms it restricts to on the components.
Echelonizing that kernel against a weighted monomial order splits the
degree-m monomials into initial and standard ones, from which the
Hilbert-Mumford index of the m-th Hilbert point is an exact rational:

    mu = m * P(m) / (N+1) * sum(r_i)  -  sum of standard-monomial weights.

No floating point is used anywhere in this module.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import comb
from typing import Optional, Sequence

from .families import Configuration, OneParamSubgroup, Parametrization
from .monomials import Monomial, MonomialOrder, degree_monomials

#: most supported monomials a slice may enumerate.  A slice costs what it
#: eliminates, not its degree: the largest slice in the tests has a bound of
#: 2,970 (closed rosary r = 6, m = 8), and the slowest slice within the budget,
#: a long rosary at m = 2, still ends in seconds.
SLICE_BUDGET = 5000

#: most degree-m monomials `IdealSlice.monomials` may list.  That listing holds
#: every monomial in every coordinate, supported or not, so it grows far past
#: the slice: closed rosary r = 8 at m = 5 lists 98,280 (1.3 s, 55 MB for the
#: whole `index --monomials` run) and r = 10 at m = 5 lists 278,256 (3.4 s,
#: 130 MB), while r = 10 at m = 8 would list 38.6 million.
LISTING_BUDGET = 300_000


class EngineError(ValueError):
    pass


Certificate = tuple[int, tuple[tuple[int, Fraction], ...]]


@dataclass(frozen=True)
class IdealSlice:
    """Degree slice of a homogeneous ideal in echelonized form.

    `supported` lists, in ascending order, the degree-m monomials supported on
    some component's coordinates, and `supported_standard` marks the ones
    outside the initial ideal.  Every other degree-m monomial restricts to
    zero on every component, so it is initial with the certificate
    `x^{a(j)}` itself.

    `monomials` lists all degree-m monomials in ascending order and
    `standard` marks the standard ones; both are built on first use, and
    raise `EngineError` when there would be more than `LISTING_BUDGET`.  When
    built with certificates, `basis` holds the reduced echelon basis of the
    slice: for each initial monomial, its coefficients over smaller standard
    monomials (indices into `monomials`), so the row

        x^{a(j)} - sum_k coeff[k] * x^{a(k)}

    lies in the ideal and has leading term x^{a(j)}.
    """

    degree: int
    order: MonomialOrder
    supported: tuple[Monomial, ...]
    supported_standard: tuple[bool, ...]
    # certificates of the supported initial monomials, indexed into `supported`
    supported_basis: Optional[tuple[Certificate, ...]] = None

    @property
    def standard_count(self) -> int:
        return sum(self.supported_standard)

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

    @cached_property
    def basis(self) -> Optional[tuple[Certificate, ...]]:
        if self.supported_basis is None:
            return None
        index = {mono: j for j, mono in enumerate(self.monomials)}
        full = [index[mono] for mono in self.supported]
        tails = {
            full[k]: tuple((full[i], v) for i, v in tail)
            for k, tail in self.supported_basis
        }
        return tuple(
            (j, tails.get(j, ())) for j, s in enumerate(self.standard) if not s
        )

    def standard_monomials(self) -> list[Monomial]:
        return [m for m, s in zip(self.supported, self.supported_standard) if s]

    def initial_monomials(self) -> list[Monomial]:
        return [m for m, s in zip(self.monomials, self.standard) if not s]

    def standard_weight_sum(self) -> int:
        return sum(self.order.weight(m) for m in self.standard_monomials())


def initial_monomials(slice_: IdealSlice) -> set[Monomial]:
    return set(slice_.initial_monomials())


def standard_monomials(slice_: IdealSlice) -> set[Monomial]:
    return set(slice_.standard_monomials())


def _supported_monomials(par: Parametrization, m: int) -> list[Monomial]:
    """The degree-m monomials in the coordinates of at least one component."""
    found: set[Monomial] = set()
    for cm in par.maps:
        for combo in itertools.combinations_with_replacement(sorted(cm.coords()), m):
            mono = [0] * par.num_coordinates
            for i in combo:
                mono[i] += 1
            found.add(tuple(mono))
    return list(found)


def evaluate_slice(
    config: Configuration,
    m: int,
    order: Optional[MonomialOrder] = None,
    *,
    with_certificates: bool = False,
) -> IdealSlice:
    """Echelonized degree-m slice of the configuration's ideal.

    In split mode this is the slice of the rosary block: the kernel of
    evaluation on the parametrized components in the block coordinates.
    Only monomials supported on some component enter the elimination; the
    others have zero columns and are initial by construction.  A slice whose
    count of supported monomials may exceed `SLICE_BUDGET` is rejected before
    anything is enumerated.
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

    # per-component substitution data and row offsets
    comp_data = []
    offset = 0
    for cm in par.maps:
        table = {t.coord: (t.s_exp, t.coeff) for t in cm.terms}
        comp_data.append((table, cm.degree, offset))
        offset += m * cm.degree + 1

    monos = order.sorted_ascending(_supported_monomials(par, m))

    def column(mono: Monomial) -> dict[int, Fraction]:
        col: dict[int, Fraction] = {}
        support = [i for i, e in enumerate(mono) if e]
        for table, _deg, off in comp_data:
            if any(i not in table for i in support):
                continue
            alpha = 0
            coeff = Fraction(1)
            for i in support:
                s_exp, c = table[i]
                alpha += s_exp * mono[i]
                coeff *= c ** mono[i]
            row = off + alpha
            val = col.get(row, Fraction(0)) + coeff
            if val:
                col[row] = val
            else:
                col.pop(row, None)
        return col

    pivots: dict[int, dict[int, Fraction]] = {}
    pivot_expr: dict[int, dict[int, Fraction]] = {}
    standard: list[bool] = []
    certificates: list[Certificate] = []

    for j, mono in enumerate(monos):
        col = column(mono)
        expr: dict[int, Fraction] = {j: Fraction(1)} if with_certificates else {}
        while col:
            r = min(col)
            if r not in pivots:
                break
            f = col.pop(r)
            for rr, v in pivots[r].items():
                if rr == r:
                    continue
                nv = col.get(rr, Fraction(0)) - f * v
                if nv:
                    col[rr] = nv
                else:
                    col.pop(rr, None)
            if with_certificates:
                for k, v in pivot_expr[r].items():
                    nv = expr.get(k, Fraction(0)) - f * v
                    if nv:
                        expr[k] = nv
                    else:
                        expr.pop(k, None)
        if col:
            r = min(col)
            lead = col[r]
            pivots[r] = {rr: v / lead for rr, v in col.items()}
            if with_certificates:
                pivot_expr[r] = {k: v / lead for k, v in expr.items()}
            standard.append(True)
        else:
            standard.append(False)
            if with_certificates:
                tail = tuple(
                    (k, -v) for k, v in sorted(expr.items()) if k != j
                )
                certificates.append((j, tail))

    return IdealSlice(
        degree=m,
        order=order,
        supported=tuple(monos),
        supported_standard=tuple(standard),
        supported_basis=tuple(certificates) if with_certificates else None,
    )


# ---------------------------------------------------------------------------
# Hilbert-Mumford indices
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IndexReport:
    """Exact index data of the degree-m Hilbert point under one weight vector."""

    m: int
    weight_sum: Fraction
    average: Fraction
    mu: Fraction
    standard_count: int
    expected_count: int
    count_matches_hilbert: bool
    chow_sign: Optional[int] = None


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
