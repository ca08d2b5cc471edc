"""Exact GIT stability workbench for bicanonical curves.

Dual-graph stability classification, weighted-monomial-order Hilbert-Mumford
indices via exact linear algebra, Chow multiplicity certificates, basin and
closed-orbit combinatorics, and divisor-class arithmetic on the moduli space.
"""

__version__ = "0.1.0"

from .graphs import (  # noqa: F401
    Component,
    CurveGraph,
    CurveGraphError,
    Intersection,
    StabilityFlags,
    arithmetic_genus,
    aut_torus_rank,
    classify,
    contact_multiplicity,
    find_elliptic_bridges,
    find_elliptic_chains,
    find_elliptic_tails,
    find_rosaries,
    find_weak_elliptic_chains,
    has_infinite_automorphisms,
)
from .families import (  # noqa: F401
    Configuration,
    FamilyError,
    OneParamSubgroup,
    Parametrization,
    build_broken_bead_config,
    build_closed_rosary_config,
    build_open_rosary_config,
    canonical_1ps,
    torus_generators,
)
from .engine import (  # noqa: F401
    EngineError,
    IdealSlice,
    IndexReport,
    chow_index_sign,
    evaluate_slice,
    extrapolate_index,
    hilbert_index,
    index_suite,
    point_index,
)
from .monomials import MonomialOrder  # noqa: F401
from .chow import (  # noqa: F401
    BranchData,
    ChowError,
    MultiplicityCertificate,
    branch_multiplicity_bound,
    certify_unstable,
    chow_threshold,
    degenerate_multiplicity,
)
from .basins import (  # noqa: F401
    BasinError,
    BasinReport,
    VersalWeights,
    basin_membership,
    c_closed_orbit_rep,
    enumerate_c_replacements,
    h_closed_orbit_rep,
    is_c_closed_orbit,
    is_h_closed_orbit,
    versal_weights,
)
from .divisors import (  # noqa: F401
    DivisorClass,
    DivisorError,
    epsilon_of_m,
    lambda_n,
    moriwaki_decomposition,
    proportional,
    viehweg_class,
)
