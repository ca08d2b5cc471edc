"""Weighted graded lexicographic monomial orders on exponent vectors.

Monomials of a fixed degree are compared by weight first (the weight vector
of a one-parameter subgroup), ties broken lexicographically with
x_0 > x_1 > ... > x_N unless another variable precedence is supplied.  A
monomial is a dense exponent vector.
"""

from __future__ import annotations

import itertools
import math
from functools import cached_property
from typing import Iterator, Optional, Sequence

from . import _Record
from .families import OneParamSubgroup

Monomial = tuple[int, ...]


class OrderError(ValueError):
    pass


class MonomialOrder(_Record):
    """Graded order: degree, then rho-weight, then lexicographic precedence."""

    __slots__ = ("weights", "precedence", "__dict__")  # `rank` is cached in the dict

    def __init__(self, weights: OneParamSubgroup,
                 precedence: Optional[tuple[int, ...]] = None) -> None:
        self._init(weights, precedence)
        if precedence is not None and sorted(precedence) != list(range(len(weights))):
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

    @cached_property
    def rank(self) -> list[int]:
        """Position of each coordinate in the precedence (x_0 first by default)."""
        if self.precedence is None:
            return list(range(self.nvars))
        rank = [0] * self.nvars
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
