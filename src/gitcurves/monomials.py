"""Weighted graded lexicographic monomial orders on exponent vectors.

Monomials of a fixed degree are compared by weight first (the weight vector
of a one-parameter subgroup), ties broken lexicographically with
x_0 > x_1 > ... > x_N unless another variable precedence is supplied.  A
monomial is a dense exponent vector, or in sparse form its nonzero
`(coord, exp)` pairs in ascending coordinate order.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Optional, Sequence

from .families import OneParamSubgroup

Monomial = tuple[int, ...]
SparseMonomial = tuple[tuple[int, int], ...]


class OrderError(ValueError):
    pass


@dataclass(frozen=True)
class MonomialOrder:
    """Graded order: degree, then rho-weight, then lexicographic precedence."""

    weights: OneParamSubgroup
    precedence: Optional[tuple[int, ...]] = None

    def __post_init__(self) -> None:
        if self.precedence is not None:
            n = len(self.weights)
            if sorted(self.precedence) != list(range(n)):
                raise OrderError("precedence must be a permutation of coordinates")

    @property
    def nvars(self) -> int:
        return len(self.weights)

    def weight(self, mono: Monomial) -> int:
        w = self.weights.weights
        return sum(w[i] * e for i, e in enumerate(mono) if e)

    def key(self, mono: Monomial) -> tuple:
        """Sort key: ascending key order is ascending monomial order."""
        if self.precedence is None:
            lex = mono
        else:
            lex = tuple(mono[i] for i in self.precedence)
        return (sum(mono), self.weight(mono), lex)

    def sparse_key(self, mono: SparseMonomial) -> tuple:
        """Sort key of a sparse monomial: among monomials of one degree it
        orders as `key` does on their exponent vectors."""
        w = self.weights.weights
        weight = sum(w[c] * e for c, e in mono)
        if self.precedence is None:
            return (weight, tuple((-c, e) for c, e in mono))
        rank = self._rank
        return (weight, tuple(sorted(((-rank[c], e) for c, e in mono), reverse=True)))

    @cached_property
    def _rank(self) -> list[int]:
        """Position of each coordinate in the precedence."""
        rank = [0] * len(self.precedence)
        for p, c in enumerate(self.precedence):
            rank[c] = p
        return rank

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


def pair_monomial(nvars: int, i: int, j: int) -> Monomial:
    """The degree-two monomial x_i x_j."""
    mono = [0] * nvars
    mono[i] += 1
    mono[j] += 1
    return tuple(mono)
