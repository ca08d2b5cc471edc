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

The command-line parser reads `CASES` from here for every command, so this
module imports `families` only inside `certify_unstable`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Optional

from . import GitcurvesError

if TYPE_CHECKING:
    from .families import OneParamSubgroup

INFINITE_ORDER = None  # vanishing order of a coordinate identically zero on the branch


class ChowError(GitcurvesError):
    pass


@dataclass(frozen=True)
class BranchData:
    """Vanishing orders v(x_i) of the coordinates along one branch.

    `orders` may be shorter than the weight vector: missing entries default
    to `tail_order`.  `None` marks coordinates identically zero on the branch.
    """

    point: str
    orders: tuple[Optional[int], ...]
    tail_order: Optional[int] = 0

    def __post_init__(self) -> None:
        finite = [o for o in self.orders if o is not None]
        if self.tail_order == 0 or 0 in finite:
            return
        raise ChowError(
            f"branch {self.point!r}: some coordinate must have vanishing order 0"
        )

    def order(self, i: int) -> Optional[int]:
        if i < len(self.orders):
            return self.orders[i]
        return self.tail_order


@dataclass(frozen=True)
class MultiplicityCertificate:
    case: str
    lower_bound: Fraction
    threshold: Fraction
    verdict: str  # "Unstable" | "Inconclusive"

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
    from .families import OneParamSubgroup  # deferred: the CLI parser loads this module

    if case == NON_ORDINARY_CUSP:
        # vanishing sequence (0, 2, 4, >=5, ...) against weights (5, 3, 1, 0...)
        rho = OneParamSubgroup((5, 3, 1, 0))
        branch = BranchData("cusp", (0, 2, 4), tail_order=5)
        bound = branch_multiplicity_bound(branch, rho)
        threshold = Fraction(2 * 4, 3) * 9  # (dim+1)/(N+1)*deg = 8/3, sum r_i = 9
        return certificate(case, bound, threshold)
    if case == HIGHER_TACNODE:
        # two branches agreeing to order >= 3: orders (0, 1, 2, >=3) each
        rho = OneParamSubgroup((3, 2, 1, 0))
        branch = BranchData("tacnode-branch", (0, 1, 2), tail_order=3)
        bound = 2 * branch_multiplicity_bound(branch, rho)
        threshold = Fraction(2 * 4, 3) * 6
        return certificate(case, bound, threshold)
    if case == MULTIPLE_COMPONENT:
        # a smooth non-flex point of a doubled component: orders (0, 1, 2, >=3)
        rho = OneParamSubgroup((3, 2, 1, 0))
        branch = BranchData("doubled-point", (0, 1, 2), tail_order=3)
        bound = 2 * branch_multiplicity_bound(branch, rho)
        threshold = Fraction(2 * 4, 3) * 6
        return certificate(case, bound, threshold)
    if case == GENUS_ONE_TACNODE_TAIL:
        if g is None or g < 4:
            raise ChowError("the tacnodal-tail certificate needs genus g >= 4")
        # cuspidal rational E and a conic R meeting at a tacnode, R meeting the
        # genus g-2 remainder D at a node; weights (0,2,3,4,2,...,2)
        n = 3 * g - 4
        rho = OneParamSubgroup((0, 2, 3, 4) + (2,) * (n - 3))
        e_at_tacnode = BranchData("E-tacnode", (4, 2, 1, 0), tail_order=None)
        r_at_tacnode = BranchData("R-tacnode", (None, None, 1, 0, 2), tail_order=None)
        r_at_node = BranchData("R-node", (None, None, 1, 2, 0), tail_order=None)
        bound = (
            branch_multiplicity_bound(e_at_tacnode, rho)
            + branch_multiplicity_bound(r_at_tacnode, rho)
            + branch_multiplicity_bound(r_at_node, rho)
            + degenerate_multiplicity(1, 2, 4 * g - 10)
        )
        threshold = chow_threshold(1, n, 4 * g - 4, rho.total())
        return certificate(case, bound, threshold)
    raise ChowError(f"unknown case {case!r}")
