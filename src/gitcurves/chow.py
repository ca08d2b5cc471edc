"""Chow instability certificates from Hilbert-Samuel multiplicity bounds.

A one-parameter subgroup destabilizes the Chow point of a curve whenever the
multiplicity e_rho exceeds (dim+1)/(N+1) * deg * sum(r_i).  Lower bounds for
e_rho come from per-branch vanishing orders: if v(x_i) + r_i >= a on a branch
then that branch contributes at least a^2; components on which the subgroup
acts trivially contribute (dim+1) * r_0 * deg exactly.

The four built-in certificates cover non-ordinary cusps, higher tacnodes,
multiple components, and a genus-one subcurve attached at a single tacnode;
their vanishing-order tables mirror bicanonical coordinates adapted to each
singularity.

`cli.CASE_NAMES` spells out `CASES`, so that only `chow-certify` and
`paper-check` load this module.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from . import GitcurvesError, _Record
from .families import OneParamSubgroup

INFINITE_ORDER = None  # vanishing order of a coordinate identically zero on the branch


class ChowError(GitcurvesError):
    pass


class BranchData(_Record):
    """Vanishing orders v(x_i) of the coordinates along one branch.

    `orders` may be shorter than the weight vector: missing entries default
    to `tail_order`.  `None` marks coordinates identically zero on the branch.
    """

    __slots__ = ("point", "orders", "tail_order")

    def __init__(self, point: str, orders: tuple[Optional[int], ...],
                 tail_order: Optional[int] = 0) -> None:
        self._init(point, orders, tail_order)
        if tail_order != 0 and 0 not in orders:
            raise ChowError(f"branch {point!r}: some coordinate must have vanishing order 0")

    def order(self, i: int) -> Optional[int]:
        if i < len(self.orders):
            return self.orders[i]
        return self.tail_order


class MultiplicityCertificate(_Record):
    __slots__ = ("case", "lower_bound", "threshold", "verdict")

    def __init__(self, case: str, lower_bound: Fraction, threshold: Fraction,
                 verdict: str) -> None:  # "Unstable" | "Inconclusive"
        self._init(case, lower_bound, threshold, verdict)

    @property
    def unstable(self) -> bool:
        return self.verdict == "Unstable"


def branch_multiplicity_bound(b: BranchData, rho: OneParamSubgroup) -> Fraction:
    """a^2 where a = min over non-vanishing coordinates of v(x_i) + r_i."""
    best: Optional[int] = None
    for i, r in enumerate(rho.weights):
        v = b.order(i)
        if v is None:
            continue
        cand = v + r
        if best is None or cand < best:
            best = cand
    if best is None:
        raise ChowError("branch vanishes on every coordinate")
    if best < 0:
        raise ChowError("negative vanishing order plus weight")
    return Fraction(best * best)


def degenerate_multiplicity(dim: int, r0: int, deg: int) -> int:
    """Multiplicity (dim+1) * r0 * deg of a subvariety acted on trivially.

    Valid when all coordinates past the span of the subvariety vanish on it
    and the remaining weights all equal r0 (the caller asserts this).
    """
    if dim < 0 or r0 < 0 or deg < 0:
        raise ChowError("negative inputs")
    return (dim + 1) * r0 * deg


def chow_threshold(dim: int, n: int, deg: int, weight_sum: int) -> Fraction:
    """Semistability threshold (dim+1)/(N+1) * deg * sum of weights."""
    if n < 1:
        raise ChowError("ambient dimension must be >= 1")
    return Fraction((dim + 1) * deg * weight_sum, n + 1)


def certificate(
    case: str,
    lower_bound: Fraction,
    threshold: Fraction,
) -> MultiplicityCertificate:
    verdict = "Unstable" if lower_bound > threshold else "Inconclusive"
    return MultiplicityCertificate(case, Fraction(lower_bound), Fraction(threshold), verdict)


# ---------------------------------------------------------------------------
# built-in instability cases
# ---------------------------------------------------------------------------

NON_ORDINARY_CUSP = "non-ordinary-cusp"
HIGHER_TACNODE = "higher-tacnode"
MULTIPLE_COMPONENT = "multiple-component"
GENUS_ONE_TACNODE_TAIL = "genus-one-tacnode-tail"

CASES = (
    NON_ORDINARY_CUSP,
    HIGHER_TACNODE,
    MULTIPLE_COMPONENT,
    GENUS_ONE_TACNODE_TAIL,
)


def certify_unstable(case: str, g: Optional[int] = None) -> MultiplicityCertificate:
    """Assemble the instability certificate for one of the built-in cases.

    The first three cases are genus independent (the bicanonical ratio
    2*deg/(N+1) = 8/3 cancels g); the tacnodal genus-one tail needs g >= 4.
    """
    if case == NON_ORDINARY_CUSP:
        # vanishing sequence (0, 2, 4, >=5, ...) against weights (5, 3, 1, 0...)
        rho = OneParamSubgroup((5, 3, 1, 0))
        branch = BranchData("cusp", (0, 2, 4), tail_order=5)
        bound = branch_multiplicity_bound(branch, rho)
        threshold = Fraction(2 * 4, 3) * 9  # (dim+1)/(N+1)*deg = 8/3, sum r_i = 9
        return certificate(case, bound, threshold)
    if case in (HIGHER_TACNODE, MULTIPLE_COMPONENT):
        # two branches with orders (0, 1, 2, >=3) each: branches agreeing to
        # order >= 3, or the two sheets at a smooth non-flex point of a
        # doubled component
        rho = OneParamSubgroup((3, 2, 1, 0))
        branch = BranchData(case, (0, 1, 2), tail_order=3)
        bound = 2 * branch_multiplicity_bound(branch, rho)
        threshold = Fraction(2 * 4, 3) * 6
        return certificate(case, bound, threshold)
    if case == GENUS_ONE_TACNODE_TAIL:
        if g is None or g < 4:
            raise ChowError("the tacnodal-tail certificate needs genus g >= 4")
        # cuspidal rational E and a conic R meeting at a tacnode, R meeting the
        # genus g-2 remainder D at a node; weights (0,2,3,4,2,...,2) on the
        # n + 1 coordinates, summing to 2n + 3.  The branches vanish on every
        # coordinate past the fifth, so only the first five weights are built.
        n = 3 * g - 4
        rho = OneParamSubgroup((0, 2, 3, 4, 2))
        e_at_tacnode = BranchData("E-tacnode", (4, 2, 1, 0), tail_order=None)
        r_at_tacnode = BranchData("R-tacnode", (None, None, 1, 0, 2), tail_order=None)
        r_at_node = BranchData("R-node", (None, None, 1, 2, 0), tail_order=None)
        bound = (
            branch_multiplicity_bound(e_at_tacnode, rho)
            + branch_multiplicity_bound(r_at_tacnode, rho)
            + branch_multiplicity_bound(r_at_node, rho)
            + degenerate_multiplicity(1, 2, 4 * g - 10)
        )
        threshold = chow_threshold(1, n, 4 * g - 4, 2 * n + 3)
        return certificate(case, bound, threshold)
    raise ChowError(f"unknown case {case!r}")
