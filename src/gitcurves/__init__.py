"""Exact GIT stability workbench for bicanonical curves.

Dual-graph stability classification, weighted-monomial-order Hilbert-Mumford
indices via exact linear algebra, Chow multiplicity certificates, basin and
closed-orbit combinatorics, and divisor-class arithmetic on the moduli space.

`import gitcurves` loads no submodule.  Each exported name is looked up in
`_EXPORTS` on first use and imported from its submodule then, so a command
that needs only `graphs` never compiles the engine or the golden suite.
The submodules named there also resolve as attributes, `gitcurves.engine`.
"""

import importlib
from fractions import Fraction
from operator import attrgetter

__version__ = "0.1.0"

_EXPORTS = {
    "graphs": (
        "Component",
        "CurveGraph",
        "CurveGraphError",
        "Intersection",
        "StabilityFlags",
        "arithmetic_genus",
        "aut_torus_rank",
        "classify",
        "contact_multiplicity",
        "find_elliptic_bridges",
        "find_elliptic_chains",
        "find_elliptic_tails",
        "find_rosaries",
        "find_weak_elliptic_chains",
        "has_infinite_automorphisms",
    ),
    "families": (
        "Configuration",
        "FamilyError",
        "OneParamSubgroup",
        "Parametrization",
        "build_broken_bead_config",
        "build_closed_rosary_config",
        "build_open_rosary_config",
        "canonical_1ps",
        "torus_generators",
    ),
    "engine": (
        "EngineError",
        "IdealSlice",
        "IndexReport",
        "chow_index_sign",
        "evaluate_slice",
        "extrapolate_index",
        "hilbert_index",
        "index_suite",
        "point_index",
    ),
    "monomials": ("MonomialOrder",),
    "chow": (
        "BranchData",
        "ChowError",
        "MultiplicityCertificate",
        "branch_multiplicity_bound",
        "certify_unstable",
        "chow_threshold",
        "degenerate_multiplicity",
    ),
    "basins": (
        "BasinError",
        "BasinReport",
        "VersalWeights",
        "basin_membership",
        "c_closed_orbit_rep",
        "enumerate_c_replacements",
        "h_closed_orbit_rep",
        "is_c_closed_orbit",
        "is_h_closed_orbit",
        "versal_weights",
    ),
    "divisors": (
        "DivisorClass",
        "DivisorError",
        "epsilon_of_m",
        "lambda_n",
        "moriwaki_decomposition",
        "proportional",
        "viehweg_class",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["GitcurvesError", "fmt", *_MODULE_OF]


class GitcurvesError(ValueError):
    """Bad input to the library: the CLI prints these as one `error:` line."""


#: how a record's `__init__` sets its fields past the refusing `__setattr__`
_set = object.__setattr__


class _Record:
    """Base of the library's immutable records, with a frozen dataclass's semantics.

    A record's `__init__` sets its `__slots__` once, by `_init` or, in records
    built in bulk, by a faster `_set` per field.  It compares, hashes and prints
    by `_fields`: its public slots unless the class names fewer.  (`dataclasses`
    would cost every command its import and an `exec` per class.)
    """

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        if "_fields" not in cls.__dict__:
            cls._fields = tuple(n for n in cls.__slots__ if not n.startswith("_"))
        cls._values = attrgetter(*cls._fields)

    def _init(self, *values) -> None:
        for name, value in zip(self.__slots__, values):
            _set(self, name, value)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == other._values(other)

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __getstate__(self) -> dict:
        # the public slots; a stored hash and cached properties are derived again
        return {n: getattr(self, n) for n in self.__slots__ if not n.startswith("_")}

    def __setstate__(self, state: dict) -> None:
        for name, value in state.items():
            _set(self, name, value)


def fmt(x) -> str:
    """Exact rendering: integers bare, fractions as p/q in lowest terms."""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, Fraction):
        return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"
    if isinstance(x, int):
        return str(x)
    if isinstance(x, (list, tuple)):
        return "(" + ", ".join(fmt(v) for v in x) + ")"
    return str(x)


def __getattr__(name: str):
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_MODULE_OF))
