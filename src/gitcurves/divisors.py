"""Exact divisor-class arithmetic on the moduli space of genus-g curves.

Classes live in the rational Picard group with basis lambda and the boundary
classes delta_0, ..., delta_{floor(g/2)}.  Two representations are kept
apart: `total` classes know only the coefficient of delta = sum(delta_i),
`split` classes carry the full vector.  Mixing them without an explicit
conversion raises, since identities routinely move between the two bases.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence, Union

from . import GitcurvesError, _Record

Rat = Union[int, Fraction]


class DivisorError(GitcurvesError):
    pass


#: largest genus `moriwaki_decomposition` accepts: its vectors hold g/2 + 1
#: `Fraction`s, about 2 s and 40 MB for the whole command at this genus
MORIWAKI_MAX_GENUS = 100_000


class DivisorClass(_Record):
    """lambda_coeff * lambda + delta part, for one genus g."""

    __slots__ = ("g", "lam", "delta_total", "delta_vector")

    def __init__(self, g: int, lam: Fraction, delta_total: Optional[Fraction] = None,
                 delta_vector: Optional[tuple[Fraction, ...]] = None) -> None:
        self._init(g, lam, delta_total, delta_vector)
        if g < 2:
            raise DivisorError("divisor classes require genus >= 2")
        if (delta_total is None) == (delta_vector is None):
            raise DivisorError("exactly one delta representation required")
        if delta_vector is not None and len(delta_vector) != g // 2 + 1:
            raise DivisorError(f"delta vector needs {g // 2 + 1} entries for genus {g}")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def total(g: int, lam: Rat, delta: Rat) -> "DivisorClass":
        return DivisorClass(g, Fraction(lam), delta_total=Fraction(delta))

    @staticmethod
    def split(g: int, lam: Rat, deltas: Sequence[Rat]) -> "DivisorClass":
        return DivisorClass(
            g, Fraction(lam), delta_vector=tuple(Fraction(d) for d in deltas)
        )

    # -- representation moves ------------------------------------------------

    @property
    def is_total(self) -> bool:
        return self.delta_total is not None

    def to_split(self) -> "DivisorClass":
        """Spread a total-delta class over the delta_i basis."""
        if not self.is_total:
            return self
        n = self.g // 2 + 1
        return DivisorClass.split(self.g, self.lam, [self.delta_total] * n)

    def to_total(self) -> "DivisorClass":
        if self.is_total:
            return self
        values = set(self.delta_vector)
        if len(values) != 1:
            raise DivisorError("delta coefficients differ; class is not a total-delta class")
        return DivisorClass.total(self.g, self.lam, values.pop())

    def delta_coefficient(self, i: int) -> Fraction:
        if self.is_total:
            raise DivisorError("total-delta class has no per-index coefficients")
        return self.delta_vector[i]

    # -- linear structure ----------------------------------------------------

    def _check_compatible(self, other: "DivisorClass") -> None:
        if self.g != other.g:
            raise DivisorError("classes live on different moduli spaces")
        if self.is_total != other.is_total:
            raise DivisorError(
                "mixing total-delta and split-delta classes; convert explicitly"
            )

    def __add__(self, other: "DivisorClass") -> "DivisorClass":
        self._check_compatible(other)
        if self.is_total:
            return DivisorClass.total(
                self.g, self.lam + other.lam, self.delta_total + other.delta_total
            )
        return DivisorClass.split(
            self.g,
            self.lam + other.lam,
            [a + b for a, b in zip(self.delta_vector, other.delta_vector)],
        )

    def __sub__(self, other: "DivisorClass") -> "DivisorClass":
        return self + (-1) * other

    def __rmul__(self, c: Rat) -> "DivisorClass":
        c = Fraction(c)
        if self.is_total:
            return DivisorClass.total(self.g, c * self.lam, c * self.delta_total)
        return DivisorClass.split(
            self.g, c * self.lam, [c * d for d in self.delta_vector]
        )

    def __mul__(self, c: Rat) -> "DivisorClass":
        return self.__rmul__(c)

    def is_zero(self) -> bool:
        if self.is_total:
            return self.lam == 0 and self.delta_total == 0
        return self.lam == 0 and all(d == 0 for d in self.delta_vector)

    def coefficients(self) -> tuple[Fraction, ...]:
        if self.is_total:
            return (self.lam, self.delta_total)
        return (self.lam,) + self.delta_vector


def proportional(a: DivisorClass, b: DivisorClass) -> bool:
    """Whether a = c * b for some nonzero rational c."""
    if a.g != b.g or a.is_total != b.is_total:
        raise DivisorError("classes are not comparable")
    ca, cb = a.coefficients(), b.coefficients()
    if all(x == 0 for x in cb) or all(x == 0 for x in ca):
        return False
    ratio = None
    for x, y in zip(ca, cb):
        if y == 0:
            if x != 0:
                return False
            continue
        r = Fraction(x) / y
        if ratio is None:
            ratio = r
        elif r != ratio:
            return False
    return ratio is not None and ratio != 0


# ---------------------------------------------------------------------------
# the classes themselves
# ---------------------------------------------------------------------------


def lam(g: int) -> DivisorClass:
    return DivisorClass.total(g, 1, 0)


def delta(g: int) -> DivisorClass:
    return DivisorClass.total(g, 0, 1)


def r(n: int, g: int) -> int:
    """Rank of the pushforward of the n-th power of the dualizing sheaf."""
    if n < 1 or g < 2:
        raise DivisorError("need n >= 1 and g >= 2")
    return g if n == 1 else (2 * n - 1) * (g - 1)


def lambda_n(n: int, g: int) -> DivisorClass:
    """First Chern class of that pushforward: (6n^2-6n+1) lambda - C(n,2) delta."""
    if n == 1:
        return lam(g)
    return DivisorClass.total(g, 6 * n * n - 6 * n + 1, 0) - Fraction(
        n * (n - 1), 2
    ) * delta(g)


def viehweg_class(n: int, m: int, g: int) -> DivisorClass:
    """The multiplication-map class r(n) * lambda_{mn} - r(mn) * m * lambda_n."""
    if m < 2:
        raise DivisorError("need m >= 2")
    return r(n, g) * lambda_n(m * n, g) - (r(m * n, g) * m) * lambda_n(n, g)


def canonical_class(g: int) -> DivisorClass:
    """K = 13 lambda - 2 delta."""
    return DivisorClass.total(g, 13, -2)


def canonical_alpha_class(alpha: Rat, g: int) -> DivisorClass:
    """K + alpha * delta."""
    return canonical_class(g) + Fraction(alpha) * delta(g)


def epsilon_of_m(m: int) -> Fraction:
    """The slope offset 39 / (200 m - 30)."""
    if m < 1:
        raise DivisorError("need m >= 1")
    return Fraction(39, 200 * m - 30)


def moriwaki_class(g: int) -> DivisorClass:
    """(8g+4) lambda - g delta_0 - sum 4i(g-i) delta_i, in the split basis."""
    deltas = [Fraction(-g)]
    deltas += [Fraction(-4 * i * (g - i)) for i in range(1, g // 2 + 1)]
    return DivisorClass.split(g, 8 * g + 4, deltas)


def moriwaki_decomposition(g: int) -> list[Fraction]:
    """Coefficients expressing 10 lambda - delta - delta_1 over the Moriwaki class.

    Returns [1/g, 2 - 4/g, 2 - 4/g, c_2, ..., c_{floor(g/2)}] with
    c_i = -1 + 4i(g-i)/g, and verifies the identity

        10 lambda - delta - delta_1
            = (1/g) A + (2 - 4/g) lambda + (2 - 4/g) delta_1 + sum c_i delta_i

    exactly in the split basis before returning.
    """
    if g < 3:
        raise DivisorError("the decomposition needs genus >= 3")
    if g > MORIWAKI_MAX_GENUS:
        raise DivisorError(f"the decomposition needs genus <= {MORIWAKI_MAX_GENUS}, got {g}")
    inv_g = Fraction(1, g)
    lam_coeff = 2 - 4 * inv_g
    d1_coeff = 2 - 4 * inv_g
    cs = [Fraction(-1) + 4 * i * (g - i) * inv_g for i in range(2, g // 2 + 1)]

    lhs = DivisorClass.total(g, 10, -1).to_split()
    lhs = lhs - DivisorClass.split(g, 0, [0, 1] + [0] * (g // 2 - 1))

    rhs = inv_g * moriwaki_class(g)
    rhs = rhs + lam_coeff * lam(g).to_split()
    # d1_coeff * delta_1 + sum c_i delta_i as one class, so the check costs O(g)
    rhs = rhs + DivisorClass.split(g, 0, [0, d1_coeff, *cs])
    if not (lhs - rhs).is_zero():
        raise DivisorError("decomposition identity failed")
    return [inv_g, lam_coeff, d1_coeff, *cs]
