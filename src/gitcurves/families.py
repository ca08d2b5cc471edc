"""Bicanonical test configurations: rosary curves with explicit coordinates.

Constructors for the three families whose Hilbert-Mumford indices the engine
reproduces exactly:

* an open rosary of length r+1 bridging an abstract curve D (split mode: only
  the rosary block of coordinates is parametrized, D is counted by
  Riemann-Roch),
* a closed rosary of length r (fully parametrized),
* a closed rosary with one broken bead (fully parametrized).

Each family carries a canonical one-parameter subgroup acting through the
automorphisms of the rosary; the weight vectors follow the coordinate order
of the parametrizations so initial-monomial sets are directly comparable
with hand computations.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Optional

from . import GitcurvesError, _Record, _set
from .graphs import (
    NODE,
    TACNODE,
    Component,
    CurveGraph,
    Intersection,
    arithmetic_genus,
)


class FamilyError(GitcurvesError):
    """Raised for invalid family parameters or unsupported operations."""


class OneParamSubgroup(_Record):
    """Diagonalized one-parameter subgroup: integer weight r_i on coordinate x_i."""

    __slots__ = ("weights",)

    def __init__(self, weights: tuple[int, ...]) -> None:
        _set(self, "weights", weights)
        if not weights:
            raise FamilyError("empty weight vector")

    def __len__(self) -> int:
        return len(self.weights)

    def total(self) -> int:
        return sum(self.weights)

    def restrict(self, n: int) -> "OneParamSubgroup":
        return OneParamSubgroup(self.weights[:n])

    def inverse(self) -> "OneParamSubgroup":
        return OneParamSubgroup(tuple(-w for w in self.weights))

    def shifted(self, k: int) -> "OneParamSubgroup":
        return OneParamSubgroup(tuple(w + k for w in self.weights))


#: the default `ParamTerm.coeff`, one object shared by every family build
UNIT = Fraction(1)


class ParamTerm(_Record):
    """One coordinate of a component map: x_coord = coeff * s^a t^b."""

    __slots__ = ("coord", "s_exp", "t_exp", "coeff")

    def __init__(self, coord: int, s_exp: int, t_exp: int, coeff: Fraction = UNIT) -> None:
        _set(self, "coord", coord)
        _set(self, "s_exp", s_exp)
        _set(self, "t_exp", t_exp)
        _set(self, "coeff", coeff)

    @property
    def degree(self) -> int:
        return self.s_exp + self.t_exp


class ComponentMap(_Record):
    """Monomial parametrization [s, t] -> P^N of a single component."""

    __slots__ = ("component", "terms")

    def __init__(self, component: str, terms: tuple[ParamTerm, ...]) -> None:
        _set(self, "component", component)
        _set(self, "terms", terms)
        degs = {t.degree for t in terms}
        if len(degs) != 1:
            raise FamilyError(f"component {component!r}: mixed total degrees {sorted(degs)}")
        coords = [t.coord for t in terms]
        if len(set(coords)) != len(coords):
            raise FamilyError(f"component {component!r}: repeated coordinate")

    @property
    def degree(self) -> int:
        return self.terms[0].degree


class Parametrization(_Record):
    """Monomial maps for every parametrized component of a configuration."""

    # the first slice that passes its checks sets `_data`, the engine's `_SliceData`
    __slots__ = ("num_coordinates", "maps", "_data")

    def __init__(self, num_coordinates: int, maps: tuple[ComponentMap, ...]) -> None:
        self._init(num_coordinates, maps)
        for m in maps:
            for t in m.terms:
                if not 0 <= t.coord < num_coordinates:
                    raise FamilyError("coordinate index out of range")

    def total_degree(self) -> int:
        return sum(m.degree for m in self.maps)


class SplitAttachment(_Record):
    """Data for split mode: an abstract remainder D attached at two nodes.

    `genus` is the configuration's total genus, and the rosary block holds the
    coordinates x_0 .. x_{block_size-1}.
    """

    __slots__ = ("genus", "d_genus", "d_component", "block_size", "attach_coords")

    def __init__(self, genus: int, d_genus: int, d_component: str, block_size: int,
                 attach_coords: tuple[int, int]) -> None:
        self._init(genus, d_genus, d_component, block_size, attach_coords)

    def d_weight(self, rho: OneParamSubgroup) -> Optional[int]:
        """The one weight of `rho` on the D coordinates and on both attachment
        coordinates, or None when those weights differ."""
        weights = set(rho.weights[self.block_size :])
        weights.update(rho.weights[i] for i in self.attach_coords)
        return weights.pop() if len(weights) == 1 else None


# chart points of a branch on its component: s = 0 or t = 0
S_ZERO = "s0"
T_ZERO = "t0"


class Configuration(_Record):
    """A curve graph plus coordinates: fully parametrized or split over D."""

    __slots__ = ("graph", "parametrization", "split", "branch_points", "family", "params")

    def __init__(self, graph: CurveGraph, parametrization: Parametrization,
                 split: Optional[SplitAttachment] = None,
                 branch_points: tuple[tuple[Optional[str], Optional[str]], ...] = (),
                 family: Optional[str] = None, params: tuple[tuple[str, int], ...] = ()) -> None:
        self._init(graph, parametrization, split, branch_points, family, params)
        if len(branch_points) != len(graph.intersections):
            raise FamilyError("branch point data must match intersections")

    @property
    def genus(self) -> int:
        if self.split is not None:
            return self.split.genus
        return arithmetic_genus(self.graph)

    @property
    def num_coordinates(self) -> int:
        """Ambient coordinate count 3g - 3, including the D block in split mode."""
        return 3 * self.genus - 3

    def is_split(self) -> bool:
        return self.split is not None

    def to_dict(self) -> dict:
        doc: dict = {
            "family": self.family,
            "params": dict(self.params),
            "genus": self.genus,
            "num_coordinates": self.num_coordinates,
            "mode": "split" if self.is_split() else "full",
            "graph": self.graph.to_dict(),
            "parametrization": {
                "num_coordinates": self.parametrization.num_coordinates,
                "components": [
                    {
                        "id": m.component,
                        "degree": m.degree,
                        "terms": [
                            [t.coord, t.s_exp, t.t_exp, str(t.coeff)] for t in m.terms
                        ],
                    }
                    for m in self.parametrization.maps
                ],
            },
            "branch_points": [list(bp) for bp in self.branch_points],
        }
        if self.split is not None:
            doc["split"] = {
                "genus": self.split.genus,
                "d_genus": self.split.d_genus,
                "d_component": self.split.d_component,
                "block_size": self.split.block_size,
                "attach_coords": list(self.split.attach_coords),
            }
        return doc


def _json_form(value):
    try:
        return json.loads(json.dumps(value))
    except (TypeError, ValueError) as exc:
        raise FamilyError(f"configuration document is not JSON data: {exc}") from exc


def document_family(doc: dict) -> tuple[str, list[int]]:
    """The family and parameter values of a `Configuration.to_dict` document,
    checked as its builder checks them; no other key is read."""
    if not isinstance(doc, dict):
        raise FamilyError("configuration document must be a JSON object")
    family = doc.get("family")
    if not isinstance(family, str) or family not in FAMILIES:
        raise FamilyError(f"unknown family {family!r}")
    _build, names, check = FAMILIES[family]
    params = doc.get("params", {})
    if not isinstance(params, dict) or set(params) != set(names):
        raise FamilyError(f"{family} params must be exactly {', '.join(names)}")
    for name in names:
        value = params[name]
        if not isinstance(value, int) or isinstance(value, bool):
            raise FamilyError(f"param {name!r} must be an integer, got {value!r}")
    values = [params[name] for name in names]
    check(*values)
    return family, values


def configuration_from_dict(doc: dict) -> Configuration:
    """Rebuild a configuration emitted by `Configuration.to_dict`.

    Only the families in `FAMILIES` are reconstructible.  The family is
    rebuilt from its integer parameters (`document_family`), and every other
    key the document carries must equal the rebuilt configuration's
    `to_dict()` entry, so a document is either read in full or rejected.
    """
    family, values = document_family(doc)
    cfg = FAMILIES[family][0](*values)
    expected = _json_form(cfg.to_dict())
    for key, value in _json_form(doc).items():
        if key not in expected:
            raise FamilyError(f"unexpected key {key!r} for {family}")
        if value != expected[key]:
            raise FamilyError(f"{key!r} does not match the {family} family")
    return cfg


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------


def _terms(component: str, coords, exps) -> ComponentMap:
    return ComponentMap(component, tuple(ParamTerm(c, s, t) for c, (s, t) in zip(coords, exps)))


def _conic(component: str, coords: tuple[int, int, int], shape: str) -> ComponentMap:
    if shape == "s2-st-t2":
        return _terms(component, coords, [(2, 0), (1, 1), (0, 2)])
    if shape == "st-s2-t2":
        return _terms(component, coords, [(1, 1), (2, 0), (0, 2)])
    raise FamilyError(f"bad conic shape {shape!r}")


def _quartic(component: str, start: int) -> ComponentMap:
    """The quartic bead (s^3 t, s^4, s^2 t^2, s t^3, t^4) on five coordinates."""
    return _terms(component, range(start, start + 5), [(3, 1), (4, 0), (2, 2), (1, 3), (0, 4)])


def _closing_quartic(r: int) -> ComponentMap:
    """The last bead L{r} of a closed rosary on 3r coordinates; it shares x_0, x_1 with L1."""
    coords = [0, 1, 3 * r - 3, 3 * r - 2, 3 * r - 1]
    return _terms(f"L{r}", coords, [(1, 3), (0, 4), (3, 1), (4, 0), (2, 2)])


# each family's parameter check, which gives its maps' term counts (see FAMILIES)
def _open_rosary_maps(g: int, r: int) -> dict[int, int]:
    if g < 4:
        raise FamilyError("open-rosary configurations require genus >= 4")
    if not 1 <= r <= g - 2:
        raise FamilyError("rosary parameter must satisfy 1 <= r <= g - 2")
    return {3: 2, 5: r - 1}


def _closed_rosary_maps(r: int) -> dict[int, int]:
    if r < 3:
        raise FamilyError("closed rosaries require length >= 3")
    return {5: r}


def _broken_bead_maps(r: int) -> dict[int, int]:
    if r < 3 or r % 2 == 0:
        raise FamilyError("broken-bead rosaries require odd length >= 3")
    return {3: 2, 5: r - 1}


def build_open_rosary_config(g: int, r: int) -> Configuration:
    """Open rosary of length r+1 bridging an abstract genus g-r-1 curve D.

    Split mode: beads occupy coordinates x_0 .. x_{3r}; D spans the remaining
    coordinates and is attached by nodes at x_0 and x_{3r}.  End beads are
    conics, middle beads quartics.
    """
    _open_rosary_maps(g, r)  # checks the parameters
    length = r + 1
    maps = [_conic("L1", (0, 1, 2), "s2-st-t2")]
    for j in range(2, r + 1):
        maps.append(_quartic(f"L{j}", 3 * j - 5))
    maps.append(_conic(f"L{length}", (3 * r - 2, 3 * r - 1, 3 * r), "st-s2-t2"))

    comps = [Component(f"L{i}", 0) for i in range(1, length + 1)]
    comps.append(Component("D", g - r - 1))
    xs = [Intersection(NODE, (("D", 0), ("L1", 0)))]
    bps: list[tuple[Optional[str], Optional[str]]] = [(None, T_ZERO)]
    for i in range(1, length):
        xs.append(Intersection(TACNODE, ((f"L{i}", 1), (f"L{i+1}", 0))))
        bps.append((S_ZERO, T_ZERO))
    xs.append(Intersection(NODE, ((f"L{length}", 1), ("D", 1))))
    bps.append((S_ZERO, None))

    return Configuration(
        graph=CurveGraph(tuple(comps), tuple(xs)),
        parametrization=Parametrization(3 * r + 1, tuple(maps)),
        split=SplitAttachment(
            genus=g,
            d_genus=g - r - 1,
            d_component="D",
            block_size=3 * r + 1,
            attach_coords=(0, 3 * r),
        ),
        branch_points=tuple(bps),
        family="open-rosary",
        params=(("g", g), ("r", r)),
    )


def build_closed_rosary_config(r: int) -> Configuration:
    """Closed rosary of length r, genus r+1, on 3r coordinates."""
    _closed_rosary_maps(r)  # checks the parameters
    maps = [_quartic(f"L{i}", 3 * (i - 1)) for i in range(1, r)]
    maps.append(_closing_quartic(r))
    comps = tuple(Component(f"L{i}", 0) for i in range(1, r + 1))
    xs = []
    bps = []
    for i in range(1, r):
        xs.append(Intersection(TACNODE, ((f"L{i}", 1), (f"L{i+1}", 0))))
        bps.append((S_ZERO, T_ZERO))
    xs.append(Intersection(TACNODE, ((f"L{r}", 1), ("L1", 0))))
    bps.append((S_ZERO, T_ZERO))
    return Configuration(
        graph=CurveGraph(comps, tuple(xs)),
        parametrization=Parametrization(3 * r, tuple(maps)),
        branch_points=tuple(bps),
        family="closed-rosary",
        params=(("r", r),),
    )


def build_broken_bead_config(r: int) -> Configuration:
    """Closed rosary of odd length r >= 3 with one broken bead; genus r+1."""
    _broken_bead_maps(r)  # checks the parameters
    maps = [_conic("L0", (0, 1, 2), "st-s2-t2"), _conic("L1", (2, 3, 4), "s2-st-t2")]
    maps += [_quartic(f"L{i}", 3 * (i - 1)) for i in range(2, r)]
    maps.append(_closing_quartic(r))
    comps = tuple(Component(f"L{i}", 0) for i in range(r + 1))
    xs = [Intersection(NODE, (("L0", 1), ("L1", 0)))]
    bps: list[tuple[Optional[str], Optional[str]]] = [(S_ZERO, T_ZERO)]
    for i in range(1, r + 1):
        xs.append(Intersection(TACNODE, ((f"L{i}", 1), (f"L{(i + 1) % (r + 1)}", 0))))
        bps.append((S_ZERO, T_ZERO))
    return Configuration(
        graph=CurveGraph(comps, tuple(xs)),
        parametrization=Parametrization(3 * r, tuple(maps)),
        branch_points=tuple(bps),
        family="broken-bead",
        params=(("r", r),),
    )


#: every reconstructible family: name -> (builder, its integer parameter names,
#: its `_maps` function).  That function checks the parameters and gives the
#: number of the family's maps with each term count, {terms: maps}, from which
#: the engine bounds a slice before the family is built.
FAMILIES = {
    "open-rosary": (build_open_rosary_config, ("g", "r"), _open_rosary_maps),
    "closed-rosary": (build_closed_rosary_config, ("r",), _closed_rosary_maps),
    "broken-bead": (build_broken_bead_config, ("r",), _broken_bead_maps),
}


# ---------------------------------------------------------------------------
# canonical one-parameter subgroups
# ---------------------------------------------------------------------------


def canonical_1ps(config: Configuration) -> OneParamSubgroup:
    """The distinguished automorphism subgroup of a built configuration.

    Open rosary: alternating blocks (2,1,0) / (2,3,4) over the bead
    coordinates, then weight 2 on x_{3r} and on every D coordinate.  Closed
    rosary (even length): (3,4,2,1,0,2) repeated.  Broken bead: (1,0,2)
    followed by (1,0,2,3,4,2) repeated.
    """
    params = dict(config.params)
    if config.family == "open-rosary":
        g, r = params["g"], params["r"]
        w: list[int] = []
        for k in range(r):
            w.extend((2, 1, 0) if k % 2 == 0 else (2, 3, 4))
        w.append(2)
        w.extend([2] * (3 * g - 3 - len(w)))
        return OneParamSubgroup(tuple(w))
    if config.family == "closed-rosary":
        r = params["r"]
        if r % 2 != 0:
            raise FamilyError(
                "closed rosaries of odd length have finite automorphisms"
            )
        return OneParamSubgroup(tuple([3, 4, 2, 1, 0, 2] * (r // 2)))
    if config.family == "broken-bead":
        r = params["r"]
        return OneParamSubgroup(tuple([1, 0, 2] + [1, 0, 2, 3, 4, 2] * ((r - 1) // 2)))
    raise FamilyError(f"unknown family {config.family!r}")


def torus_generators(config: Configuration) -> list[OneParamSubgroup]:
    """Generators of the automorphism torus acting on the configuration.

    Each family here carries a single G_m.  Even-length open rosaries are
    normalized so the weight on both end-node deformation parameters is
    negative; for odd length the two end weights have opposite signs and the
    generator with negative weight at the first attachment node is returned.
    Families with finite automorphism groups yield an empty list.
    """
    params = dict(config.params)
    if config.family == "closed-rosary" and params["r"] % 2 != 0:
        return []
    rho = canonical_1ps(config)
    return [rho]


# ---------------------------------------------------------------------------
# torus action on component coordinates
# ---------------------------------------------------------------------------


def component_st_weights(
    config: Configuration, rho: OneParamSubgroup
) -> dict[str, tuple[Fraction, Fraction]]:
    """Solve for the induced (s, t) weights on every parametrized component.

    Requires rho to act on the configuration through automorphisms: each
    coordinate monomial s^a t^b of the component must satisfy
    a*w_s + b*w_t = r_coord.  Raises FamilyError otherwise.
    """
    if len(rho) < config.parametrization.num_coordinates:
        raise FamilyError("weight vector shorter than the parametrized block")
    out: dict[str, tuple[Fraction, Fraction]] = {}
    for m in config.parametrization.maps:
        t0, t1 = m.terms[0], m.terms[1]
        det = t0.s_exp * t1.t_exp - t1.s_exp * t0.t_exp
        if det == 0:
            raise FamilyError(f"degenerate parametrization on {m.component!r}")
        r0 = rho.weights[t0.coord]
        r1 = rho.weights[t1.coord]
        ws = Fraction(r0 * t1.t_exp - r1 * t0.t_exp, det)
        wt = Fraction(t0.s_exp * r1 - t1.s_exp * r0, det)
        for term in m.terms:
            if term.s_exp * ws + term.t_exp * wt != rho.weights[term.coord]:
                raise FamilyError(
                    f"weights do not act via automorphisms on {m.component!r}"
                )
        out[m.component] = (ws, wt)
    return out


def branch_parameter_weight(
    config: Configuration,
    rho: OneParamSubgroup,
    intersection_index: int,
    end: int,
    st_weights: Optional[dict[str, tuple[Fraction, Fraction]]] = None,
) -> Fraction:
    """Weight of rho on the local parameter of one branch at a singular point.

    At t = 0 the local parameter is t/s (weight w_t - w_s); at s = 0 it is
    s/t.  Branches on the abstract D carry weight 0, provided rho is constant
    on the D coordinates.
    """
    if st_weights is None:
        st_weights = component_st_weights(config, rho)
    point = config.branch_points[intersection_index][end]
    cid = config.graph.intersections[intersection_index].ends[end][0]
    if point is None:
        if config.split is None:
            raise FamilyError("missing branch chart point on a parametrized component")
        if config.split.d_weight(rho) is None:
            raise FamilyError("weights are not constant on the D block")
        return Fraction(0)
    ws, wt = st_weights[cid]
    if point == T_ZERO:
        return wt - ws
    if point == S_ZERO:
        return ws - wt
    raise FamilyError(f"bad branch chart point {point!r}")
