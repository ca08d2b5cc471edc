"""Weighted graded lexicographic monomial orders on exponent vectors.

Monomials of a fixed degree are compared by weight first (the weight vector
of a one-parameter subgroup), ties broken lexicographically with
x_0 > x_1 > ... > x_N.  A monomial is a dense exponent vector.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterator, Sequence

from . import _Record
from .families import OneParamSubgroup

Monomial = tuple[int, ...]


class MonomialOrder(_Record):
    """Graded order: degree, then rho-weight, then lexicographic."""

    __slots__ = ("weights",)

    def __init__(self, weights: OneParamSubgroup) -> None:
        self._init(weights)

    @property
    def nvars(self) -> int:
        return len(self.weights)

    def weight(self, mono: Monomial) -> int:
        w = self.weights.weights
        return sum(w[i] * e for i, e in enumerate(mono) if e)

    def key(self, mono: Monomial) -> tuple:
        """Sort key: ascending key order is ascending monomial order."""
        return (sum(mono), self.weight(mono), mono)

    def sorted_ascending(self, monos: Sequence[Monomial]) -> list[Monomial]:
        return sorted(monos, key=self.key)


def degree_monomials(nvars: int, degree: int) -> Iterator[Monomial]:
    """All exponent vectors of the given total degree."""
    for combo in itertools.combinations_with_replacement(range(nvars), degree):
        mono = [0] * nvars
        for i in combo:
            mono[i] += 1
        yield tuple(mono)


def monomial_count(nvars: int, degree: int) -> int:
    return math.comb(nvars + degree - 1, degree)


def monomial_str(mono: Monomial) -> str:
    parts = []
    for i, e in enumerate(mono):
        if e == 1:
            parts.append(f"x{i}")
        elif e > 1:
            parts.append(f"x{i}^{e}")
    return "*".join(parts) if parts else "1"
