"""Riemann solvers at road junctions: 1-to-1, 1-to-m diverge, 2-to-1 priority merge.

Couplings conserve mass and the momentum flow q*w.  An incoming road's attribute
and demand share one p(rho); an outgoing road's supply is taken at its modified
density.  Junctions with one incoming road share one kernel: a 1-to-1 junction
is the 1-to-m diverge with m = 1 and assignment rate 1.  The incoming attributes
mix at a merge as a flux-weighted convex combination, which makes the downstream
supply depend on the flux split itself; the merge solver resolves this with a
two-step construction (priority-enforced split, then projection onto the Pareto
front of the admissible flux set by clamped fixed points, each a bracketed
scalar root).  Both kernels take a float density and speed per branch and return
the fields of ``JunctionFluxes`` as a tuple, with one bound (a demand or a supply)
and one sonic point and capacity per branch, incoming first, each computed once:
``fluxes`` checks each flux against that capacity, and each trace of ``solve``
takes both to check its flux and split its curve.  All entry points call the
merge kernel for a merge and the single-inflow kernel otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple, Sequence

import numpy as np

from . import fundamental as fd
from .fundamental import RoadParams, TrafficState
# bisect has no caller here; the benchmark's tracer wraps junction.bisect by name
from .rootfind import SolverFailure, bisect, newton, regula_falsi  # noqa: F401

# One branch of a junction: the road's parameters plus the Riemann datum on it.
Branch = tuple[RoadParams, TrafficState]


class InfeasibleFlux(SolverFailure):
    """Requested boundary flux exceeds the capacity along the attribute curve."""


def flux_tol(scale: float) -> float:
    """Absolute flux tolerance used by all junction fixed points and root finds."""
    return 1e-9 * max(1.0, scale)


def _check_priority(priority) -> None:
    """Merge priorities lie in ]0,1[ and exceed 2**-54: the mirrored merge divides by 1 - (1 - p)."""
    if priority is None or not 0.0 < priority < 1.0:
        raise ValueError(f"merge priority must lie in ]0,1[, got {priority}")
    if 1.0 - priority == 1.0:
        raise ValueError(f"merge priority must exceed 2**-54, got {priority!r}: 1 - priority "
                         f"rounds to 1, and the mirrored merge divides by 1 - (1 - priority)")


def modified_density(out_road: RoadParams, w_in: float, v_out, out=None):
    """Density on an outgoing road behind the contact carrying the incoming attribute.

    Intersection of {w = w_in} with {v = v_out}, clamped to vacuum when the
    incoming attribute lies below the outgoing speed. Arrays are computed in
    place, in ``out`` when given.
    """
    arg = w_in - v_out if out is None else np.subtract(w_in, v_out, out=out)
    arg *= out_road.gamma / out_road.v_ref
    # Python floats clamp with max (value first: NaN passes), numpy values with np.maximum
    arg = max(arg, 0.0) if type(arg) is float else np.maximum(0.0, arg, out=out)
    arg **= 1.0 / out_road.gamma
    arg *= out_road.rho_max
    return arg


def _demand_of(p: RoadParams, rho: float, v: float):
    """Attribute w = v + p(rho) of an incoming road's state, its demand, and the sonic point
    and the capacity along w."""
    p_rho = fd._pressure(p, rho)
    w = v + p_rho
    sigma = fd._sonic_point(p, w)
    cap = fd._capacity(p, w, sigma)
    return w, fd._demand(rho, p_rho, w, sigma, cap), sigma, cap


def _supply_for(p: RoadParams, v, w):
    """Supply of an outgoing road at speed ``v`` for the attribute ``w``, and the sonic point
    and the capacity along w."""
    sigma = fd._sonic_point(p, w)
    cap = fd._capacity(p, w, sigma)
    return fd._supply(p, modified_density(p, w, v), w, sigma, cap), sigma, cap


def demand_supply(p: RoadParams, rho, p_rho, w, v, out=None):
    """Godunov demand of a left state and supply of the right state on one road.

    The left state is the density ``rho``, its pressure ``p_rho = p(rho)`` and
    its attribute ``w``; the right state takes ``w`` at its own speed ``v``
    (the modified density).  The interior-edge flux is ``min(demand, supply)``;
    a flux between two roads is a 1-to-1 junction solve.  Floats or arrays;
    the sonic point and the capacity along ``{w = const}`` are evaluated once.
    With ``out``, arrays allocate nothing: it holds six arrays of their shape,
    which receive the demand, the supply, the sonic point, the capacity and
    the modified density, and a bool one for the kernels' masks.
    """
    demand, supply, sigma, cap, rho_t, mask = out or (None,) * 6
    sigma = fd._sonic_point(p, w, out=sigma)
    cap = fd._capacity(p, w, sigma, out=cap)
    demand = fd._demand(rho, p_rho, w, sigma, cap, out=demand, mask=mask)
    return demand, fd._supply(p, modified_density(p, w, v, out=rho_t), w, sigma, cap,
                              out=supply, mask=mask)


# ---------------------------------------------------------------------------
# Junction topology
# ---------------------------------------------------------------------------

class JunctionKind(str, Enum):
    ONE_TO_ONE = "one_to_one"
    DIVERGE = "diverge"
    MERGE = "merge"


@dataclass(frozen=True)
class JunctionSpec:
    """Topology of a junction: road parameters per branch plus split/priority data."""

    kind: JunctionKind
    incoming: tuple[RoadParams, ...]
    outgoing: tuple[RoadParams, ...]
    alphas: tuple[float, ...] | None = None  # diverge only
    priority: float | None = None            # merge only

    def __post_init__(self):
        # a kind given by its value, and roads or rates given as lists, are held as declared
        if type(self.kind) is not JunctionKind:
            object.__setattr__(self, "kind", JunctionKind(self.kind))
        for name in ("incoming", "outgoing", "alphas"):
            value = getattr(self, name)
            if value is not None and type(value) is not tuple:
                object.__setattr__(self, name, tuple(value))
        n, m = len(self.incoming), len(self.outgoing)
        if self.kind is JunctionKind.ONE_TO_ONE:
            if (n, m) != (1, 1) or self.alphas is not None or self.priority is not None:
                raise ValueError("1-to-1 junction takes one incoming, one outgoing road")
        elif self.kind is JunctionKind.DIVERGE:
            if n != 1 or m < 1:
                raise ValueError("diverge takes one incoming and m >= 1 outgoing roads")
            if self.priority is not None:
                raise ValueError(f"diverge takes no priority, got priority={self.priority}")
            if self.alphas is None or len(self.alphas) != m:
                raise ValueError("diverge needs one assignment rate per outgoing road")
            if m == 1:
                # single outgoing branch collapses to a 1-to-1 junction
                if self.alphas != (1.0,):
                    raise ValueError("single-outgoing diverge must have alpha = 1")
            else:
                if any(not 0.0 < a < 1.0 for a in self.alphas):
                    raise ValueError(f"assignment rates must lie in ]0,1[, got {self.alphas}")
                if abs(math.fsum(self.alphas) - 1.0) > 1e-9:
                    raise ValueError(f"assignment rates must sum to 1, got {self.alphas}")
        elif self.kind is JunctionKind.MERGE:
            if (n, m) != (2, 1):
                raise ValueError("merge takes two incoming roads and one outgoing road")
            if self.alphas is not None:
                raise ValueError(f"merge takes no assignment rates, got alphas={self.alphas}")
            _check_priority(self.priority)


@dataclass(frozen=True)
class JunctionFluxes:
    """Fluxes and mixed attributes at a junction: all that the Godunov update needs."""

    q_in: tuple[float, ...]
    q_out: tuple[float, ...]
    w_in: tuple[float, ...]   # attribute advected out of each incoming road
    w_out: tuple[float, ...]  # mixed attribute entering each outgoing road
    ratio: float | None = None  # realized flux ratio q_1/(q_1+q_2), merge only
    case: str | None = None     # merge case tag, diagnostic only


@dataclass(frozen=True, kw_only=True)
class JunctionSolution(JunctionFluxes):
    """Junction fluxes plus the admissible boundary states (traces) they induce."""

    boundary_in: tuple[TrafficState, ...]
    boundary_out: tuple[TrafficState, ...]


# ---------------------------------------------------------------------------
# Boundary-state reconstruction
# ---------------------------------------------------------------------------

def _check_capacity(q: float, cap: float, w: float) -> None:
    """Raise InfeasibleFlux where the flux ``q`` exceeds the capacity ``cap`` along w beyond noise."""
    # small relative slack: iterative flux solves may overshoot capacity by noise
    if q > cap + 1e-6 * max(1.0, cap, q):
        raise InfeasibleFlux(f"flux {q} exceeds capacity {cap} along w={w}")


def reconstruct_boundary_state(
    p: RoadParams,
    w: float,
    q: float,
    incoming: bool,
    ref_state: TrafficState,
    bound_active: bool,
    sigma: float,
    cap: float,
) -> TrafficState:
    """Solve rho * (w - p(rho)) = q on the branch dictated by ``incoming`` and the active bound.

    Incoming roads take the congested root unless the demand bound is active;
    outgoing roads take the free-flow root unless the supply bound is active; the
    kernel's sonic point ``sigma`` along w splits the two, where the flux reaches
    the kernel's capacity ``cap``.  The returned state generates only
    outward-moving waves against ``ref_state``.
    """
    _check_capacity(q, cap, w)
    rho_tiny = 1e-12 * max(1.0, p.rho_max)

    if incoming:
        if bound_active:
            rho = ref_state.rho if ref_state.rho <= sigma + rho_tiny else sigma
        else:
            rho = _trace_density(p, w, q, sigma, cap, congested=True)
    else:
        rho_t = modified_density(p, w, ref_state.v)
        if bound_active:
            rho = rho_t if rho_t > sigma else sigma
        else:
            rho = _trace_density(p, w, q, sigma, cap, congested=False)

    v = max(w - fd._pressure(p, rho), 0.0)
    return TrafficState(rho=rho, v=v)


def _trace_density(p: RoadParams, w: float, q: float, sigma: float, cap: float,
                   congested: bool) -> float:
    """The congested or the free-flow root of rho * (w - p(rho)) = min(q, cap), split at
    the sonic point ``sigma`` along w, where the flux reaches the capacity ``cap``."""
    # resolve the trace density well below the flux tolerances used downstream
    tol = 1e-13 * max(1.0, cap)
    q = min(q, cap)

    def fdf(rho):
        # the flux is concave on {w = const}; its slope w - (1 + gamma) p(rho)
        # shares p(rho) with it; unchecked: the brackets below are non-negative
        p_rho = fd._pressure(p, rho)
        return rho * (w - p_rho) - q, w - (1.0 + p.gamma) * p_rho

    if congested:
        # flux decreases from capacity at sigma to 0 at p^-1(w), where the iteration starts
        rho_jam = max(fd._pressure_inv(p, w), sigma)
        return newton(fdf, rho_jam, sigma, rho_jam, tol)
    # flux increases from 0 at vacuum, where the iteration starts, to capacity at sigma
    return newton(fdf, 0.0, 0.0, sigma, tol)


def shock_speed(p: RoadParams, w: float, q: float, rho: float, f: float) -> float:
    """|Speed| of the first-family shock a junction flux ``q`` sends into an incoming road.

    The road's end state is the density ``rho`` with flux ``f > q`` on {w = const};
    the shock joins it to the congested trace of flux ``q``. The Rankine-Hugoniot
    speed is capped at |lambda_1| of the trace, its Lax bound, which also holds
    where the two densities are too close to divide by.
    """
    sigma = fd._sonic_point(p, w)
    rho_t = _trace_density(p, w, q, sigma, fd._capacity(p, w, sigma), congested=True)
    lax = (1.0 + p.gamma) * fd._pressure(p, rho_t) - w
    gap = rho_t - rho
    return min(lax, (f - q) / gap) if gap > 0.0 else lax


def _with_traces(
    fl: tuple,
    roads: Sequence[RoadParams],
    states: Sequence[TrafficState],
    bounds: Sequence[float],
    curves: Sequence[tuple[float, float]],
) -> JunctionSolution:
    """Add the boundary traces to a kernel's fluxes ``fl``; a bound is active where the flux
    meets it. ``curves`` holds the kernel's (sonic point, capacity) per branch."""
    tol = flux_tol(max(bounds))
    n = len(fl[0])
    traces = tuple(
        reconstruct_boundary_state(p, w, q, i < n, s, abs(q - bound) <= tol, *curve)
        for i, (p, s, q, w, bound, curve) in enumerate(zip(
            roads, states, fl[0] + fl[1], fl[2] + fl[3], bounds, curves))
    )
    return JunctionSolution(*fl, boundary_in=traces[:n], boundary_out=traces[n:])


# ---------------------------------------------------------------------------
# Junctions with a single incoming road
# ---------------------------------------------------------------------------

def _single_inflow(roads: Sequence[RoadParams], rho, v, alphas: Sequence[float]):
    """1-to-m fluxes, with the demand and the supplies as bounds, and the (sonic point,
    capacity) along each branch's attribute.

    A 1-to-1 junction is the case m = 1 with alpha = 1, for which the
    division, the products and the one-term sum below are exact.
    """
    w1, d1, sigma1, cap1 = _demand_of(roads[0], rho[0], v[0])
    supplies, sigmas, caps = zip(*[_supply_for(pj, vj, w1) for pj, vj in zip(roads[1:], v[1:])])
    q1 = min(d1, *(sup / a for sup, a in zip(supplies, alphas)))
    q_out = tuple(a * q1 for a in alphas)
    q1 = math.fsum(q_out)  # same additions on both sides: mass balance is exact
    fl = ((q1,), q_out, (w1,), (w1,) * len(q_out), None, None)
    return fl, (d1, *supplies), ((sigma1, cap1), *zip(sigmas, caps))


# ---------------------------------------------------------------------------
# 2-to-1 merge: supply geometry
# ---------------------------------------------------------------------------

class MergeGeometry(NamedTuple):
    """Closed-form representation of the merge supply as a function of the flux ratio.

    The downstream supply along the mixed attribute w(p) = w2 + p*dw takes the
    form K * (w(p) + delta)^gamma_exp with coefficients switching at the ratio
    p_hat where w(p) crosses the sonic attribute level of the outgoing road.
    """

    w1: float
    w2: float
    dw: float
    w_split: float                      # attribute level separating the two branches
    free: tuple[float, float, float]    # (K, delta, gamma_exp), capacity branch
    cong: tuple[float, float, float]    # (K, delta, gamma_exp), congested branch
    p_hat: float | None                 # finite iff dw != 0
    p_star: float | None                # stationary ratio of q1(p); None iff dw ~ 0
    p_star2: float | None               # stationary ratio of q2(p); None iff dw ~ 0

    def w_at(self, p: float) -> float:
        return self.w2 + p * self.dw


def attribute_gap_is_zero(w1: float, w2: float) -> bool:
    """Whether w1 - w2 is below the tolerance treating the merge as single-attribute."""
    return abs(w1 - w2) < 1e-12 * max(w1, w2, 1.0)


def merge_geometry(in1: Branch, in2: Branch, out: Branch) -> MergeGeometry:
    """Supply geometry and critical ratios (p_hat, P*, P**) for a 2-to-1 merge."""
    return _merge_geometry(fd.attribute(*in1), fd.attribute(*in2), out[0], out[1].v)


def _merge_geometry(w1: float, w2: float, p3: RoadParams, v3: float) -> MergeGeometry:
    """``merge_geometry`` for the incoming attributes ``w1`` and ``w2`` and the outgoing speed ``v3``."""
    dw = w1 - w2
    g3 = p3.gamma
    w_split = (g3 + 1.0) / g3 * v3
    free, power = p3.supply_constants
    cong = (v3 * p3.rho_max * power, -v3, 1.0 / g3)

    if attribute_gap_is_zero(w1, w2):
        p_hat = p_star = p_star2 = None
    else:
        p_hat = (w_split - w2) / dw
        if w2 <= (2.0 * g3 + 1.0) / g3 * v3:
            p_star = -(g3 / (2.0 * g3 + 1.0)) * w2 / dw
        else:
            p_star = -(g3 / (g3 + 1.0)) * (w2 - v3) / dw
        if w1 <= (2.0 * g3 + 1.0) / g3 * v3:
            p_star2 = (1.0 - g3 * (2.0 * w2 - w1) / dw) / (2.0 * g3 + 1.0)
        else:
            p_star2 = (1.0 - g3 * (w2 - v3) / dw) / (g3 + 1.0)

    return MergeGeometry(w1, w2, dw, w_split, free, cong, p_hat, p_star, p_star2)


def sigma_tilde(geom: MergeGeometry, p: float) -> float:
    """Downstream supply as a function of the flux ratio p = q1/(q1+q2)."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"flux ratio must lie in [0, 1], got {p}")
    return _sigma_tilde_unchecked(geom, p)


def _sigma_tilde_unchecked(geom: MergeGeometry, p: float) -> float:
    w = geom.w2 + p * geom.dw  # geom.w_at(p), inlined: the merge fixed points call this most
    k, delta, g = geom.free if w <= geom.w_split else geom.cong
    return k * max(w + delta, 0.0) ** g


def sigma_tilde_branch_derivative(geom: MergeGeometry, p: float, branch: str) -> float:
    """One-sided derivative of the ratio-parameterized supply on a given branch."""
    k, delta, g = geom.free if branch == "free" else geom.cong
    return k * g * max(geom.w_at(p) + delta, 0.0) ** (g - 1.0) * geom.dw


def _sigma3(geom: MergeGeometry, q1: float, q2: float, p_default: float) -> float:
    """Supply at the flux pair (q1, q2); falls back to the ratio ``p_default`` at zero flux.

    Non-negative fluxes give a ratio in [0, 1] (rounding keeps q1 / (q1 + q2) <= 1).
    """
    total = q1 + q2
    return _sigma_tilde_unchecked(geom, q1 / total if total > 0 else p_default)


# ---------------------------------------------------------------------------
# 2-to-1 merge: fixed points and the two-step solver
# ---------------------------------------------------------------------------

def _clamped_fixed_point(
    geom: MergeGeometry,
    fixed: float,
    fixed_is_q1: bool,
    floor: float,
    cap: float,
    p_default: float,
    tol: float,
) -> float:
    """Solve x = min(cap, max(floor, Sigma3 - fixed)) for the free flux coordinate.

    The fixed coordinate stays at ``fixed`` while x varies on [floor, cap]; the
    supply is re-evaluated at each candidate ratio, so this is the scalar
    reduction of the min/max fixed-point systems of the merge construction.
    Unless the clamp binds at an end, x is the root of h(x) = Sigma3 - fixed - x,
    found by regula falsi on the bracket; h has a kink where the ratio crosses
    p_hat, which the bracket absorbs.
    """
    floor = max(floor, 0.0)
    if cap <= floor:
        return cap

    def h(x):
        q1, q2 = (fixed, x) if fixed_is_q1 else (x, fixed)
        return _sigma3(geom, q1, q2, p_default) - fixed - x

    # the clamp binds at floor where h(floor) <= tol (or the bracket is narrower than
    # tol) and at cap where h(cap) >= -tol; the iteration reuses both end values
    h_floor = h(floor)
    if h_floor <= tol or cap - floor <= tol:
        return floor
    h_cap = h(cap)
    if h_cap >= -tol:
        return cap
    return regula_falsi(h, floor, cap, h_floor, h_cap, tol)


def _priority_split(geom: MergeGeometry, delta1: float, delta2: float, priority: float):
    """Step 1 of the merge construction: the exact priority split P f_p, (1 - P) f_p, then f_p and
    Sigma~(P).  P and its complement lie in ]0,1[ (_check_priority)."""
    s_p = _sigma_tilde_unchecked(geom, priority)
    f_p = min(delta1 / priority, delta2 / (1.0 - priority), s_p)
    return priority * f_p, (1.0 - priority) * f_p, f_p, s_p


def _solve_merge_core(
    geom: MergeGeometry, delta1: float, delta2: float, priority: float
) -> tuple[float, float, str]:
    """Two-step merge construction for a non-positive attribute gap (w1 <= w2).

    Returns the fluxes and the case tag: E1-E3 for the single-attribute-like
    ("easy") construction, H1a/H1b/H2a/H2b/H2c for the attribute-gap
    construction with the stationary ratio P* of q1 active.  Mirrored cases
    (positive attribute gap) are handled by the caller through index swapping.
    E2/H1b/H2b fix q1 = delta1 and E3/H2a/H2c fix q2 = delta2; only the floor
    of the free coordinate differs.
    """
    # Step 1, shared with the public priority_split
    q1_tilde, q2_tilde, f_p, s_p = _priority_split(geom, delta1, delta2, priority)
    tol = flux_tol(max(1.0, delta1, delta2, s_p))
    supply_binds = s_p <= f_p + tol
    # the exact minimum, not one within tol of it: fixing q1 = delta1 (E2, H2b)
    # can exceed the supply by up to tol where demand 2 binds
    demand1_binds = delta1 / priority <= delta2 / (1.0 - priority)

    # Step 2: resolve the fixed points well inside the flux tolerance used for comparisons
    fp_tol = 1e-4 * flux_tol(max(1.0, delta1, delta2, q1_tilde + q2_tilde))
    p_default = q1_tilde / (q1_tilde + q2_tilde) if q1_tilde + q2_tilde > 0 else 0.5

    def fix_q1(floor, case):
        # a floor at or above delta2 returns delta2 (H2b's saturated case)
        q2 = _clamped_fixed_point(geom, delta1, True, floor, delta2, p_default, fp_tol)
        return delta1, q2, case

    def fix_q2(case):
        q1 = _clamped_fixed_point(geom, delta2, False, q1_tilde, delta1, p_default, fp_tol)
        return q1, delta2, case

    if geom.p_star is None or priority <= geom.p_star:
        if supply_binds:
            return q1_tilde, q2_tilde, "E1"
        return fix_q1(q2_tilde, "E2") if demand1_binds else fix_q2("E3")
    # here 0 <= P* < priority, since the attribute gap is non-positive
    s_star = _sigma_tilde_unchecked(geom, geom.p_star)
    q1_star = geom.p_star * s_star
    q2_star = (1.0 - geom.p_star) * s_star
    if not supply_binds:
        return fix_q1(q2_star, "H2b") if demand1_binds else fix_q2("H2c")
    if q2_star > delta2 + tol:
        return fix_q2("H2a")
    if q1_star > delta1 + tol:
        return fix_q1(q2_star, "H1b")
    # the stationary split is feasible within tol; a road gets no more than its demand
    return min(q1_star, delta1), min(q2_star, delta2), "H1a"


def _oriented(w1: float, w2: float, delta1: float, delta2: float, p3: RoadParams, v3: float,
              priority: float):
    """Whether the merge is mirrored (w1 > w2: roads and priority swapped), and the
    (geometry, demands, priority) that its construction takes."""
    if not attribute_gap_is_zero(w1, w2) and w1 > w2:
        return True, (_merge_geometry(w2, w1, p3, v3), delta2, delta1, 1.0 - priority)
    return False, (_merge_geometry(w1, w2, p3, v3), delta1, delta2, priority)


def priority_split(in1: Branch, in2: Branch, out: Branch, priority: float) -> tuple[float, float]:
    """The fluxes (q1, q2) of the merge solver's first step, mirrored as the solver mirrors the merge."""
    _check_priority(priority)
    (w1, delta1, *_), (w2, delta2, *_) = (_demand_of(p, s.rho, s.v) for p, s in (in1, in2))
    mirrored, args = _oriented(w1, w2, delta1, delta2, out[0], out[1].v, priority)
    q1, q2, _, _ = _priority_split(*args)
    return (q2, q1) if mirrored else (q1, q2)


def stationary_split(in1: Branch, in2: Branch, out: Branch) -> tuple[float, float] | None:
    """The fluxes (q1, q2) = (P*, 1 - P*) Sigma~(P*) of the merge solver's stationary split,
    mirrored as the solver mirrors the merge; None where P* is undefined or outside [0, 1]."""
    # the geometry alone: P* and Sigma~ depend on neither the demands nor the priority
    mirrored, (geom, *_) = _oriented(fd.attribute(*in1), fd.attribute(*in2), 0.0, 0.0,
                                     out[0], out[1].v, 0.5)
    p = geom.p_star
    if p is None or not 0.0 <= p <= 1.0:
        return None
    s = _sigma_tilde_unchecked(geom, p)
    q1, q2 = p * s, (1.0 - p) * s
    return (q2, q1) if mirrored else (q1, q2)


def _merge(roads: Sequence[RoadParams], rho, v, priority: float):
    """Merge fluxes, with the demands and the mixed-attribute supply as bounds, and the
    (sonic point, capacity) along each branch's attribute."""
    w1, delta1, sigma1, cap1 = _demand_of(roads[0], rho[0], v[0])
    w2, delta2, sigma2, cap2 = _demand_of(roads[1], rho[1], v[1])
    mirrored, args = _oriented(w1, w2, delta1, delta2, roads[2], v[2], priority)
    q1, q2, case = _solve_merge_core(*args)
    if mirrored:
        q1, q2, case = q2, q1, case + "'"

    q3 = q1 + q2
    w_p = w2 + priority * (w1 - w2)
    w_mix = (q1 * w1 + q2 * w2) / q3 if q3 > 0 else w_p
    ratio = q1 / q3 if q3 > 0 else priority
    fl = ((q1, q2), (q3,), (w1, w2), (w_mix,), ratio, case)
    supply3, sigma3, cap3 = _supply_for(roads[2], v[2], w_mix)
    return fl, (delta1, delta2, supply3), ((sigma1, cap1), (sigma2, cap2), (sigma3, cap3))


def solve_merge(in1: Branch, in2: Branch, out: Branch, priority: float) -> JunctionSolution:
    """Pareto-optimal priority-based Riemann solver for a 2-to-1 merge."""
    _check_priority(priority)
    roads, states = zip(in1, in2, out)
    fl, bounds, curves = _merge(roads, [s.rho for s in states], [s.v for s in states], priority)
    return _with_traces(fl, roads, states, bounds, curves)


# ---------------------------------------------------------------------------
# Generic entry points
# ---------------------------------------------------------------------------

def fluxes(spec: JunctionSpec, rho: Sequence[float], v: Sequence[float]) -> tuple:
    """``junction_fluxes`` on one unchecked density and speed per branch (incoming first), as
    floats; returns the fields of JunctionFluxes as a tuple. Each branch flux is checked against
    the kernel's capacity along its attribute, as the traces of ``solve`` check it."""
    roads = spec.incoming + spec.outgoing
    if spec.kind is JunctionKind.MERGE:
        fl, _, curves = _merge(roads, rho, v, spec.priority)
    else:  # a 1-to-1 junction is the diverge with alphas (1.0,)
        fl, _, curves = _single_inflow(roads, rho, v, spec.alphas or (1.0,))
    for q, w, (_, cap) in zip(fl[0] + fl[1], fl[2] + fl[3], curves):
        _check_capacity(q, cap, w)
    return fl


def _unpacked(spec: JunctionSpec, states: Sequence[TrafficState]):
    roads = spec.incoming + spec.outgoing
    if len(states) != len(roads):
        raise ValueError(f"expected {len(roads)} states, got {len(states)}")
    return roads, [s.rho for s in states], [s.v for s in states]


def junction_fluxes(spec: JunctionSpec, states: Sequence[TrafficState]) -> JunctionFluxes:
    """Fluxes and mixed attributes of ``solve`` without the boundary traces (``fluxes``)."""
    _, rho, v = _unpacked(spec, states)
    return JunctionFluxes(*fluxes(spec, rho, v))


def solve(spec: JunctionSpec, states: Sequence[TrafficState]) -> JunctionSolution:
    """Apply the Riemann solver of ``spec`` to one state per branch (incoming first)."""
    roads, rho, v = _unpacked(spec, states)
    if spec.kind is JunctionKind.MERGE:
        return solve_merge(*zip(roads, states), spec.priority)
    fl, bounds, curves = _single_inflow(roads, rho, v, spec.alphas or (1.0,))
    return _with_traces(fl, roads, states, bounds, curves)


# ---------------------------------------------------------------------------
# Admissibility and consistency checks
# ---------------------------------------------------------------------------

@dataclass
class AdmissibilityReport:
    """Wave-speed sign violations of a junction solution, empty when admissible."""

    violations: list[tuple[str, str, float]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def _first_family_speeds(p: RoadParams, w: float, rho_l: float, rho_r: float):
    """Speed range of the first-family wave connecting two states on {w = const}."""
    if abs(rho_r - rho_l) <= 1e-11 * max(1.0, p.rho_max):
        return None
    f_l = rho_l * (w - fd._pressure(p, rho_l))
    f_r = rho_r * (w - fd._pressure(p, rho_r))
    if rho_r > rho_l:  # shock
        s = (f_r - f_l) / (rho_r - rho_l)
        return s, s
    # rarefaction: edge speeds, lambda_1 decreasing in rho
    return fd.lambda1(p, rho_l, w), fd.lambda1(p, rho_r, w)


def check_admissibility(
    spec: JunctionSpec, states: Sequence[TrafficState], sol: JunctionSolution
) -> AdmissibilityReport:
    """Verify that all junction-generated waves leave the junction point."""
    n = len(spec.incoming)
    report = AdmissibilityReport()
    for i, (p, s0) in enumerate(zip(spec.incoming, states[:n])):
        tol = 1e-6 * max(1.0, p.v_ref)
        speeds = _first_family_speeds(p, sol.w_in[i], s0.rho, sol.boundary_in[i].rho)
        if speeds is not None and speeds[1] > tol:
            report.violations.append((f"in{i}", "first-family", speeds[1]))
    for j, (p, s0) in enumerate(zip(spec.outgoing, states[n:])):
        tol = 1e-6 * max(1.0, p.v_ref)
        w = sol.w_out[j]
        rho_t = modified_density(p, w, s0.v)
        speeds = _first_family_speeds(p, w, sol.boundary_out[j].rho, rho_t)
        if speeds is not None and speeds[0] < -tol:
            report.violations.append((f"out{j}", "first-family", speeds[0]))
    return report


@dataclass
class ConsistencyReport:
    """Flux deviation when the solver is re-applied to its own boundary states."""

    max_deviation: float
    case: str | None

    def within(self, tol: float) -> bool:
        return self.max_deviation <= tol


def check_consistency(spec: JunctionSpec, states: Sequence[TrafficState]) -> ConsistencyReport:
    """Numerical self-consistency check: solve again from the reconstructed traces."""
    sol = solve(spec, states)
    sol2 = junction_fluxes(spec, sol.boundary_in + sol.boundary_out)
    dev = max(
        max(abs(a - b) for a, b in zip(sol.q_in, sol2.q_in)),
        max(abs(a - b) for a, b in zip(sol.q_out, sol2.q_out)),
    )
    return ConsistencyReport(max_deviation=dev, case=sol.case)
