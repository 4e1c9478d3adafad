"""Per-road fundamental-diagram quantities for the ARZ second-order model.

Each road carries a power-law pressure p(rho) = (v_ref/gamma) * (rho/rho_max)^gamma
that defines the Lagrangian attribute w = v + p(rho).  Along a curve of constant
attribute {w = c} the flux q(rho) = (c - p(rho)) * rho is strictly concave with a
unique maximizer (the sonic density), which splits the curve into the demand and
supply branches used by all junction couplings.

All functions accept scalars or numpy arrays for the density/attribute arguments.
Scalars take plain Python arithmetic, so Python floats give Python floats; arrays
take numpy's, in the same operations and order (``_demand`` and ``_supply`` hold
both forms).  Units are fixed: density in veh/km, speed in km/h, flux in veh/h.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Densities below this threshold are treated as vacuum; the speed of a vacuum
# state recovered from conservative variables is reported as v_ref.
VACUUM_RHO = 1e-10


@dataclass(frozen=True)
class RoadParams:
    """Fundamental-diagram parameters of a single road."""

    rho_max: float  # the pressure law's reference density, not a bound on densities [veh/km]
    v_ref: float    # reference speed [km/h]
    gamma: float    # pressure exponent [-]

    def __post_init__(self):
        # plain comparisons first: a NaN fails them, and they cost least
        if not (self.rho_max > 0 and self.v_ref > 0 and self.gamma > 0
                and math.isfinite(self.rho_max) and math.isfinite(self.v_ref)
                and math.isfinite(self.gamma)):
            raise ValueError(
                f"road parameters must be finite and strictly positive, got "
                f"rho_max={self.rho_max}, v_ref={self.v_ref}, gamma={self.gamma}"
            )


@dataclass(frozen=True)
class TrafficState:
    """Primitive traffic state (density, speed)."""

    rho: float  # [veh/km]
    v: float    # [km/h]

    def __post_init__(self):
        if not (self.rho >= 0 and self.v >= 0 and math.isfinite(self.rho) and math.isfinite(self.v)):
            raise ValueError(f"invalid state rho={self.rho}, v={self.v}")


_SCALAR = (int, float)  # np.float64 included: it subclasses float


def _check_nonneg(x, name):
    # a plain comparison for scalars: a numpy reduction costs more than the formulas it guards
    if (x < 0) if isinstance(x, _SCALAR) else np.any(np.asarray(x) < 0):
        raise ValueError(f"{name} must be non-negative, got {x}")


# The public functions below check their arguments once; the unchecked kernels
# they share serve callers whose inputs are non-negative by construction.

def _pressure(p: RoadParams, rho, out=None):
    if out is None and isinstance(rho, _SCALAR):
        # np.divide would return a numpy scalar
        return (rho / p.rho_max) ** p.gamma * (p.v_ref / p.gamma)
    x = np.divide(rho, p.rho_max, out=out)
    x **= p.gamma
    x *= p.v_ref / p.gamma
    return x


def _pressure_inv(p: RoadParams, val):
    return p.rho_max * (p.gamma * val / p.v_ref) ** (1.0 / p.gamma)


def _sonic_point(p: RoadParams, c):
    return p.rho_max * (c * p.gamma / (p.v_ref * (1.0 + p.gamma))) ** (1.0 / p.gamma)


def _capacity(p: RoadParams, c, sigma):
    """Capacity along {w = c}, given its sonic point ``sigma``."""
    # p(sigma(c)) = c / (1 + gamma) for the power-law pressure
    return (c * p.gamma / (1.0 + p.gamma)) * sigma


# The scalar clamps are np.maximum(q, 0.0) exactly: NaN passes, and -0.0 becomes 0.0.

def _demand(rho, p_rho, c, sigma, cap):
    """Demand at ``rho`` (pressure ``p_rho``) along {w = c}, given its sonic point and capacity."""
    if isinstance(rho, _SCALAR) and isinstance(sigma, _SCALAR):
        q = (c - p_rho) * rho if rho <= sigma else cap
        return 0.0 if q <= 0.0 else q
    mask = rho <= sigma
    congested = (c - p_rho) * rho
    del p_rho  # a temporary from ``demand``: freed before ``np.where`` allocates
    q = np.where(mask, congested, cap)
    del mask, congested, cap  # the capacity too, before the clamp allocates
    return np.maximum(q, 0.0)


def _supply(p: RoadParams, rho, c, sigma, cap):
    """Supply at density ``rho`` along {w = c}, given its sonic point and capacity."""
    if isinstance(rho, _SCALAR) and isinstance(sigma, _SCALAR):
        q = cap if rho <= sigma else (c - _pressure(p, rho)) * rho
        return 0.0 if q <= 0.0 else q
    # densities beyond the zero-speed point can accept nothing, not a negative flux
    congested = (c - _pressure(p, rho)) * rho
    q = np.where(rho <= sigma, cap, congested)
    del cap  # a temporary from ``supply`` (the oracle's grids): freed before the clamp allocates
    return np.maximum(q, 0.0)


def pressure(p: RoadParams, rho):
    """Pressure p(rho) = (v_ref/gamma) * (rho/rho_max)^gamma."""
    _check_nonneg(rho, "rho")
    return _pressure(p, rho)


def pressure_inv(p: RoadParams, val):
    """Density at which the pressure equals ``val``."""
    _check_nonneg(val, "pressure value")
    return _pressure_inv(p, val)


def sonic_point(p: RoadParams, c):
    """Density maximizing the flux (c - p(rho)) * rho along {w = c}."""
    _check_nonneg(c, "attribute")
    return _sonic_point(p, c)


def capacity(p: RoadParams, c):
    """Maximal flux along {w = c}, attained at the sonic density."""
    _check_nonneg(c, "attribute")
    return _capacity(p, c, _sonic_point(p, c))


def demand(p: RoadParams, rho, c):
    """Maximal flux the road can send downstream from density ``rho`` at attribute ``c``."""
    _check_nonneg(rho, "rho")
    _check_nonneg(c, "attribute")
    rho = rho if isinstance(rho, _SCALAR) else np.asarray(rho, dtype=float)
    sigma = _sonic_point(p, c)
    return _demand(rho, _pressure(p, rho), c, sigma, _capacity(p, c, sigma))


def supply(p: RoadParams, rho, c):
    """Maximal flux the road can accept at density ``rho`` and attribute ``c``."""
    _check_nonneg(rho, "rho")
    _check_nonneg(c, "attribute")
    rho = rho if isinstance(rho, _SCALAR) else np.asarray(rho, dtype=float)
    sigma = _sonic_point(p, c)
    return _supply(p, rho, c, sigma, _capacity(p, c, sigma))


def lambda1(p: RoadParams, rho, c):
    """First characteristic speed along {w = c}: c - (1 + gamma) p(rho)."""
    return c - (1.0 + p.gamma) * pressure(p, rho)


def attribute(p: RoadParams, s: TrafficState) -> float:
    """Lagrangian attribute w = v + p(rho) of a state."""
    return s.v + _pressure(p, s.rho)


def to_conservative(p: RoadParams, s: TrafficState) -> tuple[float, float]:
    """Conservative pair (rho, y) with y = rho * w."""
    return s.rho, s.rho * attribute(p, s)


def from_conservative(p: RoadParams, rho: float, y: float) -> TrafficState:
    """Primitive state from the conservative pair; vacuum reports v = v_ref."""
    if rho < VACUUM_RHO:
        return TrafficState(rho=max(rho, 0.0), v=p.v_ref)
    v = y / rho - _pressure(p, rho)
    return TrafficState(rho=rho, v=max(v, 0.0))


def equilibrium_speed(p: RoadParams, rho):
    """Greenshields equilibrium speed V(rho) = v_ref * (1 - rho/rho_max)."""
    return p.v_ref * (1.0 - rho / p.rho_max)


def equilibrium_density(p: RoadParams, q: float) -> float:
    """Free-flow density realizing the flux rho * V(rho) = q on the equilibrium curve."""
    _check_nonneg(q, "flux")
    q_cap = p.v_ref * p.rho_max / 4.0
    if not q <= q_cap:  # a NaN fails this comparison too
        raise ValueError(f"flux {q} is not within the equilibrium capacity {q_cap}")
    # at q = q_cap the discriminant is 0, but can round below it
    disc = max(p.rho_max**2 - 4.0 * p.rho_max * q / p.v_ref, 0.0)
    return 0.5 * (p.rho_max - math.sqrt(disc))


def equilibrium_state(p: RoadParams, rho: float) -> TrafficState:
    """State on the equilibrium curve at density ``rho``."""
    return TrafficState(rho=rho, v=equilibrium_speed(p, rho))
