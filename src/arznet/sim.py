"""First-order Godunov finite-volume simulator for the ARZ model on a road network.

Interior interface fluxes are 1-to-1 junction solves with identical road
parameters (demand/supply with the attribute advected downstream); node fluxes
come from the junction Riemann solvers evaluated on the adjacent boundary cells.
External road ends use ghost cells frozen at the initial far-field state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import fundamental as fd
from . import junction as jn
from .fundamental import RoadParams, TrafficState


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
        if np.any(self.rho < 0) or np.any(self.y < 0):
            raise ValueError("rho and y must be non-negative")
        if self.ghost_left is None:
            self.ghost_left = fd.from_conservative(self.params, self.rho[0], self.y[0])
        if self.ghost_right is None:
            self.ghost_right = fd.from_conservative(self.params, self.rho[-1], self.y[-1])

    @property
    def dx(self) -> float:
        return self.length / self.cells

    def primitives(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-cell (v, w) with the vacuum convention w = v = v_ref."""
        vac = self.rho < fd.VACUUM_RHO
        rho_safe = np.where(vac, 1.0, self.rho)
        w = np.where(vac, self.params.v_ref, self.y / rho_safe)
        v = np.maximum(w - np.asarray(fd.pressure(self.params, self.rho)), 0.0)
        v = np.where(vac, self.params.v_ref, v)
        return v, w

    def boundary_state(self, end: str) -> TrafficState:
        idx = 0 if end == "left" else -1
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
            for rid, end in [(r, "right") for r in j.in_ids] + [(r, "left") for r in j.out_ids]:
                if rid not in self.roads:
                    raise ValueError(f"junction references unknown road {rid!r}")
                if (rid, end) in used:
                    raise ValueError(f"road end {rid}/{end} attached to two junctions")
                used.add((rid, end))
        self._junction_ends = used

    def is_external(self, road_id: str, end: str) -> bool:
        return (road_id, end) not in self._junction_ends


@dataclass
class SimConfig:
    t_end: float                 # [h]
    cfl: float = 0.5
    output_stride: int = 10
    steady_tol: float = 1e-6     # relative junction-flux change
    steady_window: int = 100     # consecutive steps below tolerance
    max_steps: int = 1_000_000

    def __post_init__(self):
        if not 0.0 < self.cfl <= 1.0:
            raise ValueError(f"cfl must lie in ]0,1], got {self.cfl}")
        if self.t_end < 0:
            raise ValueError("t_end must be non-negative")


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
    # per junction-adjacent road id: array of (q, w) rows aligned with `times`
    flux_series: dict[str, np.ndarray]
    final_rho: dict[str, np.ndarray]
    final_v: dict[str, np.ndarray]
    ledger: MassLedger
    steps: int
    steady: bool
    steady_fluxes: dict[str, float]


def interface_flux(left: jn.Branch, right: jn.Branch) -> tuple[float, float]:
    """Godunov flux at a cell interface: (mass flux, momentum flux)."""
    p_l, s_l = left
    p_r, s_r = right
    w_l = fd.attribute(p_l, s_l) if s_l.rho >= fd.VACUUM_RHO else s_l.v
    de = float(fd.demand(p_l, s_l.rho, w_l))
    rho_t = float(jn.modified_density(p_r, w_l, s_r.v))
    su = float(fd.supply(p_r, rho_t, w_l))
    q = min(de, su)
    return q, w_l * q


def _max_wave_speed(road: DiscretizedRoad, v: np.ndarray, w: np.ndarray) -> float:
    lam1 = w - (1.0 + road.params.gamma) * np.asarray(fd.pressure(road.params, road.rho))
    return float(max(np.max(np.abs(lam1)), np.max(v), road.params.v_ref))


def stable_dt(network: Network, cfl: float) -> float:
    """CFL time step over all roads."""
    dt = math.inf
    for road in network.roads.values():
        v, w = road.primitives()
        dt = min(dt, cfl * road.dx / _max_wave_speed(road, v, w))
    return dt


def _edge_fluxes(road: DiscretizedRoad, v: np.ndarray, w: np.ndarray):
    """Interior + external-boundary edge fluxes; junction edges stay unset (nan)."""
    p = road.params
    n = road.cells
    fm = np.empty(n + 1)
    fy = np.empty(n + 1)
    fm[:] = np.nan
    if n > 1:
        w_l = w[:-1]
        de = fd.demand(p, road.rho[:-1], w_l)
        rho_t = jn.modified_density(p, w_l, v[1:])
        su = fd.supply(p, rho_t, w_l)
        fm[1:-1] = np.minimum(de, su)
        fy[1:-1] = w_l * fm[1:-1]
    return fm, fy


def _junction_edges(network: Network) -> dict[tuple[str, int], tuple[float, float, float]]:
    """(mass flux, momentum flux, w) at each junction road end, keyed by (road id, edge index)."""
    edges = {}
    for nj in network.junctions:
        states = [network.roads[rid].boundary_state("right") for rid in nj.in_ids]
        states += [network.roads[rid].boundary_state("left") for rid in nj.out_ids]
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


def step(network: Network, dt: float) -> dict[str, tuple[float, float]]:
    """Advance every road by one conservative update of size ``dt``.

    Returns the junction-edge (q, w) per junction-adjacent road id.  Raises
    CFLViolation when ``dt`` exceeds the stability bound.
    """
    prims = {rid: road.primitives() for rid, road in network.roads.items()}
    for rid, road in network.roads.items():
        v, w = prims[rid]
        if dt > road.dx / _max_wave_speed(road, v, w) * (1.0 + 1e-12):
            raise CFLViolation(f"dt={dt} exceeds the CFL bound on road {rid}")

    edge = {}
    for rid, road in network.roads.items():
        v, w = prims[rid]
        fm, fy = _edge_fluxes(road, v, w)
        if network.is_external(rid, "left"):
            g = road.ghost_left
            s0 = TrafficState(float(road.rho[0]), float(v[0]))
            fm[0], fy[0] = interface_flux((road.params, g), (road.params, s0))
        if network.is_external(rid, "right"):
            g = road.ghost_right
            s1 = TrafficState(float(road.rho[-1]), float(v[-1]))
            fm[-1], fy[-1] = interface_flux((road.params, s1), (road.params, g))
        edge[rid] = (fm, fy)

    junction_fluxes: dict[str, tuple[float, float]] = {}
    for (rid, idx), (q, mom, wv) in _junction_edges(network).items():
        fm, fy = edge[rid]
        fm[idx], fy[idx] = q, mom
        junction_fluxes[rid] = (q, wv)

    for rid, road in network.roads.items():
        fm, fy = edge[rid]
        lam = dt / road.dx
        road.rho -= lam * np.diff(fm)
        road.y -= lam * np.diff(fy)
        np.clip(road.rho, 0.0, None, out=road.rho)
        np.clip(road.y, 0.0, None, out=road.y)
    return junction_fluxes, edge


def run(network: Network, cfg: SimConfig) -> SimResult:
    """Advance until t_end or a steady junction flux, recording flux time series."""
    ledger = MassLedger(
        initial_mass=math.fsum(r.total_mass() for r in network.roads.values()),
        initial_momentum=math.fsum(r.total_momentum() for r in network.roads.values()),
    )
    times = [0.0]
    series: dict[str, list[tuple[float, float]]] = {}
    junction_road_ids = list(dict.fromkeys(
        rid for nj in network.junctions for rid in (*nj.in_ids, *nj.out_ids)
    ))
    for rid in junction_road_ids:
        series[rid] = []

    def record(jf):
        for rid in junction_road_ids:
            series[rid].append(jf.get(rid, (math.nan, math.nan)))

    # initial snapshot: junction fluxes on the initial data
    jf0 = {rid: (q, wv) for (rid, _), (q, _, wv) in _junction_edges(network).items()}
    record(jf0)

    t = 0.0
    steps = 0
    steady_count = 0
    steady = False
    prev = None
    jf = {}
    while t < cfg.t_end * (1.0 - 1e-12) and steps < cfg.max_steps:
        dt = min(stable_dt(network, cfg.cfl), cfg.t_end - t)
        jf, edge = step(network, dt)
        for rid, road in network.roads.items():
            fm, fy = edge[rid]
            if network.is_external(rid, "left"):
                ledger.mass_in += dt * float(fm[0])
                ledger.momentum_in += dt * float(fy[0])
            if network.is_external(rid, "right"):
                ledger.mass_out += dt * float(fm[-1])
                ledger.momentum_out += dt * float(fy[-1])
        t += dt
        steps += 1
        if steps % cfg.output_stride == 0:
            times.append(t)
            record(jf)
        if junction_road_ids:
            cur = np.array([jf[rid][0] for rid in junction_road_ids])
            if prev is not None:
                change = float(np.max(np.abs(cur - prev))) / max(1.0, float(np.max(np.abs(cur))))
                steady_count = steady_count + 1 if change < cfg.steady_tol else 0
            prev = cur
            if steady_count >= cfg.steady_window:
                steady = True
                break

    if not times or times[-1] != t:
        times.append(t)
        record(jf if steps else jf0)

    ledger.final_mass = math.fsum(r.total_mass() for r in network.roads.values())
    ledger.final_momentum = math.fsum(r.total_momentum() for r in network.roads.values())

    final_rho, final_v = {}, {}
    for rid, road in network.roads.items():
        v, _ = road.primitives()
        final_rho[rid] = road.rho.copy()
        final_v[rid] = v
    steady_fluxes = {rid: series[rid][-1][0] for rid in junction_road_ids}
    return SimResult(
        times=np.array(times),
        flux_series={rid: np.array(vals) for rid, vals in series.items()},
        final_rho=final_rho, final_v=final_v, ledger=ledger,
        steps=steps, steady=steady, steady_fluxes=steady_fluxes,
    )


def write_flux_csv(result: SimResult, path) -> None:
    """Flux time series as `t,branch_id,q,w` rows, full precision."""
    import csv

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "branch_id", "q", "w"])
        for rid, arr in result.flux_series.items():
            for t, (q, w) in zip(result.times, arr):
                writer.writerow([repr(float(t)), rid, repr(float(q)), repr(float(w))])


def write_profile_csv(result: SimResult, path) -> None:
    """Final density/speed profiles as `branch_id,cell,rho,v` rows."""
    import csv

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["branch_id", "cell", "rho", "v"])
        for rid in result.final_rho:
            for k, (rho, v) in enumerate(zip(result.final_rho[rid], result.final_v[rid])):
                writer.writerow([rid, k, repr(float(rho)), repr(float(v))])
