"""First-order Godunov finite-volume simulator for the ARZ model on a road network.

Interior interface fluxes are 1-to-1 junction solves with identical road
parameters (demand/supply with the attribute advected downstream); node fluxes
come from the junction Riemann solvers evaluated on the adjacent boundary cells.
External road ends use ghost cells frozen at the initial far-field state.

Each step evaluates p(rho), w, v and the max wave speed once per road
(``_cells``); the CFL bound and the fluxes of every edge, the external ends
included, are computed from that one result.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import fundamental as fd
from . import junction as jn
from .fundamental import RoadParams, TrafficState
from .rootfind import SolverFailure


class CFLViolation(RuntimeError):
    """Requested time step exceeds the stability bound."""


@dataclass
class DiscretizedRoad:
    """One road split into uniform cells carrying the conservative pair (rho, y)."""

    road_id: str
    params: RoadParams
    length: float  # [km]
    cells: int
    rho: np.ndarray
    y: np.ndarray
    ghost_left: TrafficState = None
    ghost_right: TrafficState = None

    def __post_init__(self):
        if self.cells < 1 or self.length <= 0:
            raise ValueError("road needs positive length and at least one cell")
        if self.rho.shape != (self.cells,) or self.y.shape != (self.cells,):
            raise ValueError("state arrays must have one entry per cell")
        # a NaN fails both comparisons: rejected here, not at the first step
        if not all(0 <= x.min() and x.max() < math.inf for x in (self.rho, self.y)):
            raise ValueError("rho and y must be non-negative and finite")
        if self.ghost_left is None:
            self.ghost_left = fd.from_conservative(self.params, self.rho[0], self.y[0])
        if self.ghost_right is None:
            self.ghost_right = fd.from_conservative(self.params, self.rho[-1], self.y[-1])

    @property
    def dx(self) -> float:
        return self.length / self.cells

    def boundary_state(self, idx: int) -> TrafficState:
        """The state of the end cell at edge index ``idx``: 0 the left end, -1 the right."""
        return fd.from_conservative(self.params, float(self.rho[idx]), float(self.y[idx]))

    def total_mass(self) -> float:
        return float(np.sum(self.rho)) * self.dx

    def total_momentum(self) -> float:
        return float(np.sum(self.y)) * self.dx


def road_from_state(road_id, params, length, cells, state: TrafficState) -> DiscretizedRoad:
    """Uniformly initialized road."""
    rho, y = fd.to_conservative(params, state)
    return DiscretizedRoad(
        road_id=road_id, params=params, length=length, cells=cells,
        rho=np.full(cells, float(rho)), y=np.full(cells, float(y)),
    )


@dataclass(frozen=True)
class NetworkJunction:
    """A junction spec wired to road ids (incoming first)."""

    spec: jn.JunctionSpec
    in_ids: tuple[str, ...]
    out_ids: tuple[str, ...]


@dataclass
class Network:
    roads: dict[str, DiscretizedRoad]
    junctions: list[NetworkJunction] = field(default_factory=list)

    def __post_init__(self):
        used = set()
        for j in self.junctions:
            for rid, idx in [(r, -1) for r in j.in_ids] + [(r, 0) for r in j.out_ids]:
                if rid not in self.roads:
                    raise ValueError(f"junction references unknown road {rid!r}")
                if (rid, idx) in used:
                    raise ValueError(f"road end ({rid!r}, {idx}) attached to two junctions")
                used.add((rid, idx))
        # (road id, edge index) of each end without a junction: in road order, left before right
        self.external_ends = [(rid, idx) for rid in self.roads for idx in (0, -1)
                              if (rid, idx) not in used]


STEADY_WINDOW = 100    # consecutive steps below steady_tol that make a run steady
MAX_STEPS = 1_000_000


@dataclass
class SimConfig:
    t_end: float = 0.25          # [h]
    cfl: float = 0.5
    output_stride: int = 10
    steady_tol: float = 1e-6     # relative junction-flux change

    def __post_init__(self):
        if not 0.0 < self.cfl <= 1.0:
            raise ValueError(f"cfl must lie in ]0,1], got {self.cfl}")
        if not self.output_stride >= 1:
            raise ValueError(f"output_stride must be at least 1, got {self.output_stride}")
        if not (math.isfinite(self.t_end) and self.t_end >= 0):
            raise ValueError(f"t_end must be finite and non-negative, got {self.t_end}")
        if not (math.isfinite(self.steady_tol) and self.steady_tol >= 0):
            raise ValueError(f"steady_tol must be finite and non-negative, got {self.steady_tol}")


@dataclass
class MassLedger:
    """Interior totals plus boundary flux integrals, for rho and y separately."""

    initial_mass: float = 0.0
    initial_momentum: float = 0.0
    final_mass: float = 0.0
    final_momentum: float = 0.0
    mass_in: float = 0.0
    mass_out: float = 0.0
    momentum_in: float = 0.0
    momentum_out: float = 0.0

    def residuals(self) -> tuple[float, float]:
        """Relative conservation residuals for mass and momentum."""
        r_mass = (self.final_mass - self.initial_mass) - (self.mass_in - self.mass_out)
        r_mom = (self.final_momentum - self.initial_momentum) - (self.momentum_in - self.momentum_out)
        scale_mass = max(1.0, self.initial_mass + self.mass_in)
        scale_mom = max(1.0, self.initial_momentum + self.momentum_in)
        return r_mass / scale_mass, r_mom / scale_mom


@dataclass
class SimResult:
    times: np.ndarray
    # per junction road end, in junction order: (q, w) rows aligned with `times`
    flux_series: dict[tuple[str, int], np.ndarray]
    final_rho: dict[str, np.ndarray]
    final_v: dict[str, np.ndarray]
    ledger: MassLedger
    steps: int
    steady: bool

    @property
    def steady_fluxes(self) -> dict[tuple[str, int], float]:
        """The last recorded flux at each junction road end."""
        return {end: float(arr[-1, 0]) for end, arr in self.flux_series.items()}


def end_labels(ends) -> list[str]:
    """Name of each (road id, edge index): the road id, or b[0] and b[-1] for a road b at both ends."""
    rids = [rid for rid, _ in ends]
    return [rid if rids.count(rid) == 1 else f"{rid}[{idx}]" for rid, idx in ends]


# no caller in the package: kept by name for the benchmark's tracer, which wraps it
def interface_flux(left: jn.Branch, right: jn.Branch) -> tuple[float, float]:
    """Godunov flux between two states, the 1-to-1 junction's: (mass flux, momentum flux)."""
    fl = jn._single_inflow(left, (right,), (1.0,))[0]
    return fl.q_in[0], fl.q_in[0] * fl.w_in[0]


class _Cells(NamedTuple):
    """One road's cell quantities for one step, laid out by edge (n cells, n + 1 edges).

    ``p = p(rho)`` and ``w`` are those of the left state of each edge: the
    frozen left ghost, then cells 0..n-1. ``v`` is the right speed of each
    edge: cells 0..n-1, then the frozen right ghost.
    """

    p: np.ndarray
    w: np.ndarray
    v: np.ndarray
    speed: float   # max wave speed over the cells


def _cells(road: DiscretizedRoad) -> _Cells:
    """Evaluate p(rho), w, v and the max wave speed of a road once, for the CFL bound and the fluxes."""
    par, n, rho = road.params, road.cells, road.rho
    p, w, v = np.empty(n + 1), np.empty(n + 1), np.empty(n + 1)
    g = road.ghost_left
    p[0] = fd._pressure(par, g.rho)
    w[0] = g.v + p[0] if g.rho >= fd.VACUUM_RHO else g.v
    v[n] = road.ghost_right.v
    p_c, w_c, v_c = p[1:], w[1:], v[:-1]
    fd._pressure(par, rho, out=p_c)
    # vacuum convention: w = v = v_ref
    vac = rho < fd.VACUUM_RHO
    np.divide(road.y, np.where(vac, 1.0, rho), out=w_c)
    w_c[vac] = par.v_ref
    np.maximum(w_c - p_c, 0.0, out=v_c)
    v_c[vac] = par.v_ref
    lam1 = w_c - (1.0 + par.gamma) * p_c
    speed = float(max(np.abs(lam1).max(), v_c.max(), par.v_ref))
    # the last edge's left state as at an external end: w = v + p(rho), not y / rho
    w[n] = v[n - 1] + p[n] if rho[-1] >= fd.VACUUM_RHO else v[n - 1]
    return _Cells(p, w, v, speed)


def stable_dt(network: Network, cfl: float, cells: dict[str, _Cells]) -> float:
    """CFL time step over all roads, from this step's ``_cells`` per road."""
    dt = math.inf
    for rid, road in network.roads.items():
        dt = min(dt, cfl * road.dx / cells[rid].speed)
    return dt


def _junction_edges(network: Network) -> dict[tuple[str, int], tuple[float, float, float]]:
    """(mass flux, momentum flux, w) at each junction road end, keyed by (road id, edge index)."""
    edges = {}
    for nj in network.junctions:
        states = [network.roads[rid].boundary_state(-1) for rid in nj.in_ids]
        states += [network.roads[rid].boundary_state(0) for rid in nj.out_ids]
        fl = jn.junction_fluxes(nj.spec, states)
        mom_in = [q * wv for q, wv in zip(fl.q_in, fl.w_in)]
        for rid, q, mom, wv in zip(nj.in_ids, fl.q_in, mom_in, fl.w_in):
            edges[rid, -1] = (q, mom, wv)
        if len(nj.out_ids) == 1:
            # hand the outgoing road the exact incoming totals
            edges[nj.out_ids[0], 0] = (math.fsum(fl.q_in), math.fsum(mom_in), fl.w_out[0])
        else:
            for rid, q, wv in zip(nj.out_ids, fl.q_out, fl.w_out):
                edges[rid, 0] = (q, q * wv, wv)
    return edges


def step(network: Network, dt: float, cells: dict[str, _Cells]):
    """Advance every road by one conservative update of size ``dt``.

    Returns the (mass flux, momentum flux, w) of ``_junction_edges`` per
    junction road end and the edge fluxes (mass, momentum) per road.
    ``cells`` holds this step's ``_cells`` per road.  Raises CFLViolation
    when ``dt`` exceeds the stability bound.
    """
    for rid, road in network.roads.items():
        if dt > road.dx / cells[rid].speed * (1.0 + 1e-12):
            raise CFLViolation(f"dt={dt} exceeds the CFL bound on road {rid}")

    # every edge as a 1-to-1 interface; junction edges are overwritten below
    edge = {}
    for rid, road in network.roads.items():
        c = cells[rid]
        # the left densities of the edges, padded here rather than kept in _Cells:
        # fewer arrays stay alive across the step
        rho = np.empty(road.cells + 1)
        rho[0], rho[1:] = road.ghost_left.rho, road.rho
        de, su = jn.demand_supply(road.params, rho, c.p, c.w, c.v)
        fm = np.minimum(de, su, out=de)
        edge[rid] = (fm, c.w * fm)

    junction_edges = _junction_edges(network)
    for (rid, idx), (q, mom, _) in junction_edges.items():
        fm, fy = edge[rid]
        fm[idx], fy[idx] = q, mom

    for rid, road in network.roads.items():
        fm, fy = edge[rid]
        lam = dt / road.dx
        road.rho -= lam * (fm[1:] - fm[:-1])
        road.y -= lam * (fy[1:] - fy[:-1])
        np.maximum(road.rho, 0.0, out=road.rho)
        np.maximum(road.y, 0.0, out=road.y)
    return junction_edges, edge


def run(network: Network, cfg: SimConfig) -> SimResult:
    """Advance until t_end or a steady junction flux, recording flux time series."""
    ledger = MassLedger(
        initial_mass=math.fsum(r.total_mass() for r in network.roads.values()),
        initial_momentum=math.fsum(r.total_momentum() for r in network.roads.values()),
    )
    times = [0.0]
    snapshots = [_junction_edges(network)]  # the junction fluxes at `times`: initial data first

    t = 0.0
    steps = 0
    steady_count = 0
    prev = None
    while t < cfg.t_end * (1.0 - 1e-12) and steps < MAX_STEPS:
        cells = {rid: _cells(road) for rid, road in network.roads.items()}
        for rid, c in cells.items():
            if not math.isfinite(c.speed):
                raise SolverFailure(f"non-finite state on road {rid} at step {steps}, t={t!r}")
        dt = min(stable_dt(network, cfg.cfl, cells), cfg.t_end - t)
        jf, edge = step(network, dt, cells)
        for rid, idx in network.external_ends:
            fm, fy = edge[rid]
            if idx == 0:
                ledger.mass_in += dt * float(fm[0])
                ledger.momentum_in += dt * float(fy[0])
            else:
                ledger.mass_out += dt * float(fm[-1])
                ledger.momentum_out += dt * float(fy[-1])
        t += dt
        steps += 1
        if steps % cfg.output_stride == 0:
            times.append(t)
            snapshots.append(jf)
        if jf:
            cur = np.array([q for q, _, _ in jf.values()])
            if prev is not None:
                change = float(np.max(np.abs(cur - prev))) / max(1.0, float(np.max(np.abs(cur))))
                steady_count = steady_count + 1 if change < cfg.steady_tol else 0
            prev = cur
            if steady_count >= STEADY_WINDOW:
                break

    if times[-1] != t:  # only after a step: t stays 0.0 until one is taken
        times.append(t)
        snapshots.append(jf)

    ledger.final_mass = math.fsum(r.total_mass() for r in network.roads.values())
    ledger.final_momentum = math.fsum(r.total_momentum() for r in network.roads.values())

    final_rho, final_v = {}, {}
    for rid, road in network.roads.items():
        final_rho[rid] = road.rho.copy()
        final_v[rid] = _cells(road).v[:-1]
    return SimResult(
        times=np.array(times),
        flux_series={end: np.array([(s[end][0], s[end][2]) for s in snapshots])
                     for end in snapshots[0]},
        final_rho=final_rho, final_v=final_v, ledger=ledger,
        steps=steps, steady=steady_count >= STEADY_WINDOW,
    )


_CSV_ROWS = 4096


def write_flux_csv(result: SimResult, path) -> None:
    """Flux time series as `t,branch_id,q,w` rows, full precision."""
    import csv

    times = [repr(t) for t in result.times.tolist()]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "branch_id", "q", "w"])
        for label, arr in zip(end_labels(result.flux_series), result.flux_series.values()):
            q, w = arr.T.tolist()
            writer.writerows(zip(times, itertools.repeat(label), map(repr, q), map(repr, w)))


def write_profile_csv(result: SimResult, path) -> None:
    """Final density/speed profiles as `branch_id,cell,rho,v` rows."""
    import csv

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["branch_id", "cell", "rho", "v"])
        for rid, rho in result.final_rho.items():
            v = result.final_v[rid]
            # a bounded number of rows as Python floats at a time keeps the peak memory flat
            for lo in range(0, len(rho), _CSV_ROWS):
                hi = lo + _CSV_ROWS
                writer.writerows(zip(itertools.repeat(rid), range(lo, hi),
                                     map(repr, rho[lo:hi].tolist()), map(repr, v[lo:hi].tolist())))
