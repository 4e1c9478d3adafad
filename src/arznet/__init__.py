"""ARZ second-order traffic model on road networks.

Junction Riemann solvers (1-to-1, 1-to-m diverge, 2-to-1 priority merge) with
mass and momentum-flow conservation, plus a Godunov finite-volume network
simulator and brute-force validation oracles.
"""

from .fundamental import (
    RoadParams,
    TrafficState,
    attribute,
    capacity,
    demand,
    pressure,
    pressure_inv,
    sonic_point,
    supply,
)
from .junction import (
    JunctionFluxes,
    JunctionKind,
    JunctionSolution,
    JunctionSpec,
    MergeGeometry,
    check_admissibility,
    check_consistency,
    junction_fluxes,
    merge_geometry,
    modified_density,
    sigma_tilde,
    solve,
    solve_merge,
)
from .rootfind import SolverFailure

__all__ = [
    "RoadParams",
    "TrafficState",
    "attribute",
    "capacity",
    "demand",
    "pressure",
    "pressure_inv",
    "sonic_point",
    "supply",
    "JunctionFluxes",
    "JunctionKind",
    "JunctionSolution",
    "JunctionSpec",
    "MergeGeometry",
    "check_admissibility",
    "check_consistency",
    "junction_fluxes",
    "merge_geometry",
    "modified_density",
    "sigma_tilde",
    "solve",
    "solve_merge",
    "SolverFailure",
]

__version__ = "0.1.0"
