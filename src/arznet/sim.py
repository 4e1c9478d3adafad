"""First-order Godunov finite-volume simulator for the ARZ model on a road network.

Interior interface fluxes are 1-to-1 junction solves with identical road
parameters (demand/supply with the attribute advected downstream); node fluxes
come from the junction Riemann solvers evaluated on the adjacent boundary cells.
External road ends use ghost cells frozen at the initial far-field state.

Each step evaluates p(rho), w, v and the max wave speed once per road
(``_cells``); the CFL bound and the fluxes of every edge, the external ends
included, are computed from that one result.

The time loop (``run_batch``) steps networks of one topology as one batch:
each road's cells are one (B, n) array whose row b is member b's, and each
member keeps its own clock. ``run`` is its one-member case.
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


# a member's failures in the time loop, which name the member, the step and t
MEMBER_FAILURES = (SolverFailure, CFLViolation, jn.InfeasibleFlux)


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
    labels = [rid if rids.count(rid) == 1 else f"{rid}[{idx}]" for rid, idx in ends]
    if len(set(labels)) < len(labels):
        raise ValueError(f"two junction road ends share a label: {labels}")
    return labels


# no caller in the package: kept by name for the benchmark's tracer, which wraps it
def interface_flux(left: jn.Branch, right: jn.Branch) -> tuple[float, float]:
    """Godunov flux between two states, the 1-to-1 junction's: (mass flux, momentum flux)."""
    fl = jn._single_inflow(left, (right,), (1.0,))[0]
    return fl.q_in[0], fl.q_in[0] * fl.w_in[0]


@dataclass
class RoadRows:
    """One road of every member of a batch: row b of each array is member b's.

    ``ghosts`` holds each member's frozen far-field data in four columns: the
    left ghost's density, p(rho) and w, then the right ghost's speed.
    """

    road: DiscretizedRoad   # the first member's: parameters, cells and dx
    rho: np.ndarray         # (B, n)
    y: np.ndarray           # (B, n)
    ghosts: np.ndarray      # (B, 4)

    def end_state(self, row: int, idx: int) -> TrafficState:
        """The state of member ``row``'s end cell at edge index ``idx``: 0 the left end, -1 the right."""
        return fd.from_conservative(self.road.params, float(self.rho[row, idx]),
                                    float(self.y[row, idx]))


def _ghost_columns(road: DiscretizedRoad) -> tuple[float, float, float, float]:
    g = road.ghost_left
    p = fd._pressure(road.params, g.rho)
    return g.rho, p, g.v + p if g.rho >= fd.VACUUM_RHO else g.v, road.ghost_right.v


@dataclass
class Batch:
    """Networks of one topology stepped as one: member b is row b of each road's arrays.

    The members share the junctions and each road's parameters, length and
    cell count; their cells and ghosts differ.
    """

    junctions: list[NetworkJunction]
    external_ends: list[tuple[str, int]]
    roads: dict[str, RoadRows]

    def take(self, rows) -> Batch:
        """The batch of the members selected by ``rows``, as copies."""
        return Batch(self.junctions, self.external_ends,
                     {rid: RoadRows(r.road, r.rho[rows], r.y[rows], r.ghosts[rows])
                      for rid, r in self.roads.items()})


def batch_of(networks: list[Network]) -> Batch:
    """The networks as one batch. A single network's road arrays are viewed, not copied,
    so that stepping the batch updates them in place."""
    if not networks:
        raise ValueError("a batch needs at least one network")
    first = networks[0]
    shape = [(rid, r.params, r.length, r.cells) for rid, r in first.roads.items()]
    for net in networks[1:]:
        if (net.junctions != first.junctions
                or [(rid, r.params, r.length, r.cells) for rid, r in net.roads.items()] != shape):
            raise ValueError("batch members must share their roads and junctions")
    roads = {}
    for rid, road in first.roads.items():
        members = [net.roads[rid] for net in networks]
        if len(members) == 1:
            rho, y = road.rho[None], road.y[None]
        else:
            rho, y = np.stack([m.rho for m in members]), np.stack([m.y for m in members])
        roads[rid] = RoadRows(road, rho, y, np.array([_ghost_columns(m) for m in members]))
    return Batch(first.junctions, first.external_ends, roads)


class _Cells(NamedTuple):
    """One road's cell quantities for one step, laid out by edge (n cells, n + 1 edges).

    ``p = p(rho)`` and ``w`` are those of the left state of each edge: the
    frozen left ghost, then cells 0..n-1. ``v`` is the right speed of each
    edge: cells 0..n-1, then the frozen right ghost. Row b is member b's.
    """

    p: np.ndarray
    w: np.ndarray
    v: np.ndarray
    speed: np.ndarray   # max wave speed over the cells, per member


def _cells(rows: RoadRows) -> _Cells:
    """Evaluate p(rho), w, v and the max wave speed of a road once, for the CFL bound and the fluxes."""
    par, n, rho = rows.road.params, rows.road.cells, rows.rho
    shape = (len(rho), n + 1)
    p, w, v = np.empty(shape), np.empty(shape), np.empty(shape)
    p[:, 0], w[:, 0], v[:, n] = rows.ghosts[:, 1], rows.ghosts[:, 2], rows.ghosts[:, 3]
    p_c, w_c, v_c = p[:, 1:], w[:, 1:], v[:, :-1]
    fd._pressure(par, rho, out=p_c)
    # vacuum convention: w = v = v_ref
    vac = rho < fd.VACUUM_RHO
    np.divide(rows.y, np.where(vac, 1.0, rho), out=w_c)
    w_c[vac] = par.v_ref
    np.maximum(w_c - p_c, 0.0, out=v_c)
    v_c[vac] = par.v_ref
    lam1 = w_c - (1.0 + par.gamma) * p_c
    speed = np.maximum(np.maximum(np.abs(lam1).max(axis=1), v_c.max(axis=1)), par.v_ref)
    # the last edge's left state as at an external end: w = v + p(rho), not y / rho
    w[:, n] = np.where(rho[:, -1] >= fd.VACUUM_RHO, v[:, n - 1] + p[:, n], v[:, n - 1])
    return _Cells(p, w, v, speed)


def stable_dt(batch: Batch, cfl: float, cells: dict[str, _Cells]) -> np.ndarray:
    """CFL time step of each member over all roads, from this step's ``_cells`` per road."""
    dt = math.inf
    for rid, rows in batch.roads.items():
        dt = np.minimum(dt, cfl * rows.road.dx / cells[rid].speed)
    return dt


def _junction_edges(batch: Batch, row: int) -> dict[tuple[str, int], tuple[float, float, float]]:
    """(mass flux, momentum flux, w) at each junction road end of member ``row``,
    keyed by (road id, edge index)."""
    edges = {}
    for nj in batch.junctions:
        states = [batch.roads[rid].end_state(row, -1) for rid in nj.in_ids]
        states += [batch.roads[rid].end_state(row, 0) for rid in nj.out_ids]
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


def _in_row(exc: Exception, row: int) -> Exception:
    exc.row = row
    return exc


def step(batch: Batch, dt: np.ndarray, cells: dict[str, _Cells]):
    """Advance every member by one conservative update, member b by ``dt[b]``.

    Returns, per member, the (mass flux, momentum flux, w) of
    ``_junction_edges`` per junction road end, and the edge fluxes (mass,
    momentum) per road, one row per member. ``cells`` holds this step's
    ``_cells`` per road. Raises CFLViolation when a member's ``dt`` exceeds
    its stability bound; that and a junction's SolverFailure carry the
    member's ``row``.
    """
    for rid, rows in batch.roads.items():
        over = dt > rows.road.dx / cells[rid].speed * (1.0 + 1e-12)
        if over.any():
            row = int(np.argmax(over))
            raise _in_row(CFLViolation(f"dt={float(dt[row])} exceeds the CFL bound on road {rid}"),
                          row)

    # every edge as a 1-to-1 interface; junction edges are overwritten below
    edge = {}
    for rid, rows in batch.roads.items():
        c = cells[rid]
        # the left densities of the edges, padded here rather than kept in _Cells:
        # fewer arrays stay alive across the step
        rho = np.empty(c.p.shape)
        rho[:, 0], rho[:, 1:] = rows.ghosts[:, 0], rows.rho
        de, su = jn.demand_supply(rows.road.params, rho, c.p, c.w, c.v)
        fm = np.minimum(de, su, out=de)
        edge[rid] = (fm, c.w * fm)

    # the junction solves: a scalar loop over the members
    junction_edges = []
    for row in range(len(dt)):
        try:
            jf = _junction_edges(batch, row)
        except MEMBER_FAILURES as exc:
            raise _in_row(exc, row)
        for (rid, idx), (q, mom, _) in jf.items():
            fm, fy = edge[rid]
            fm[row, idx], fy[row, idx] = q, mom
        junction_edges.append(jf)

    for rid, rows in batch.roads.items():
        fm, fy = edge[rid]
        lam = (dt / rows.road.dx)[:, None]
        rows.rho -= lam * (fm[:, 1:] - fm[:, :-1])
        rows.y -= lam * (fy[:, 1:] - fy[:, :-1])
        np.maximum(rows.rho, 0.0, out=rows.rho)
        np.maximum(rows.y, 0.0, out=rows.y)
    return junction_edges, edge


def _at(exc: Exception, member: int, steps: int, t) -> Exception:
    """``exc`` with the member, step and time where it happened added to its message."""
    exc.member = int(member)
    exc.args = (f"{exc} at step {steps}, t={float(t)!r} (member {exc.member})",)
    return exc


# the boundary flux integrals of each member, rows in this order
_FLOWS = ("mass_in", "mass_out", "momentum_in", "momentum_out")


def run(network: Network, cfg: SimConfig) -> SimResult:
    """Advance until t_end or a steady junction flux, recording flux time series."""
    return run_batch([network], cfg)[0]


def run_batch(networks: list[Network], cfg: SimConfig) -> list[SimResult]:
    """``run`` for each of several networks of one topology, stepped as one batch.

    Each member keeps its own t, dt, ledger, recorded times and steady
    window, and its arithmetic is that of a run of its network alone. A
    member that reaches t_end or turns steady leaves the batch with its
    result, and its network holds its final state, as after ``run``.
    """
    batch = batch_of(networks)
    members = np.arange(len(networks))  # the member of each row
    mass0 = [math.fsum(r.total_mass() for r in net.roads.values()) for net in networks]
    momentum0 = [math.fsum(r.total_momentum() for r in net.roads.values()) for net in networks]
    times = [[0.0] for _ in networks]
    snapshots = []  # per member, the junction fluxes at its `times`: initial data first
    for row in members:
        try:
            snapshots.append([_junction_edges(batch, row)])
        except MEMBER_FAILURES as exc:
            raise _at(exc, row, 0, 0.0)
    results = [None] * len(networks)

    t = np.zeros(len(networks))
    flows = np.zeros((len(_FLOWS), len(networks)))
    steady = np.zeros(len(networks), dtype=int)
    prev = None
    jfs = [None] * len(networks)
    steps = 0
    while True:
        done = ~(t < cfg.t_end * (1.0 - 1e-12)) | (steady >= STEADY_WINDOW) | (steps >= MAX_STEPS)
        if done.any():
            final_v = {rid: _cells(rows).v for rid, rows in batch.roads.items()}
            for row in np.flatnonzero(done):
                m = members[row]
                if times[m][-1] != t[row]:  # only after a step: t stays 0.0 until one is taken
                    times[m].append(float(t[row]))
                    snapshots[m].append(jfs[row])
                ledger = MassLedger(initial_mass=mass0[m], initial_momentum=momentum0[m],
                                    **{k: float(x) for k, x in zip(_FLOWS, flows[:, row])})
                results[m] = _result(networks[m], batch, row, final_v, times[m], snapshots[m],
                                     ledger, steps, bool(steady[row] >= STEADY_WINDOW))
            if done.all():
                return results
            keep = ~done
            batch, members, t, steady = batch.take(keep), members[keep], t[keep], steady[keep]
            flows = flows[:, keep]
            jfs = [jfs[row] for row in np.flatnonzero(keep)]
            prev = None if prev is None else prev[keep]

        cells = {rid: _cells(rows) for rid, rows in batch.roads.items()}
        for rid, c in cells.items():
            bad = ~np.isfinite(c.speed)
            if bad.any():
                row = int(np.argmax(bad))
                raise _at(SolverFailure(f"non-finite state on road {rid}"), members[row], steps,
                          t[row])
        dt = np.minimum(stable_dt(batch, cfg.cfl, cells), cfg.t_end - t)
        try:
            jfs, edge = step(batch, dt, cells)
        except MEMBER_FAILURES as exc:
            raise _at(exc, members[exc.row], steps, t[exc.row])
        for rid, idx in batch.external_ends:
            fm, fy = edge[rid]
            k = 0 if idx == 0 else 1
            flows[k] += dt * fm[:, idx]
            flows[k + 2] += dt * fy[:, idx]
        t += dt
        steps += 1
        if steps % cfg.output_stride == 0:
            for row, m in enumerate(members):
                times[m].append(float(t[row]))
                snapshots[m].append(jfs[row])
        if jfs[0]:
            cur = np.array([[q for q, _, _ in jf.values()] for jf in jfs])
            if prev is not None:
                change = np.abs(cur - prev).max(axis=1) / np.maximum(1.0, np.abs(cur).max(axis=1))
                steady = np.where(change < cfg.steady_tol, steady + 1, 0)
            prev = cur


def _result(network, batch, row, final_v, times, snapshots, ledger, steps, steady) -> SimResult:
    """Member ``row``'s result; its final cells go back into its own ``network``."""
    final_rho, v = {}, {}
    for rid, road in network.roads.items():
        rows = batch.roads[rid]
        road.rho[...], road.y[...] = rows.rho[row], rows.y[row]
        final_rho[rid] = road.rho.copy()
        v[rid] = final_v[rid][row, :-1]
    ledger.final_mass = math.fsum(r.total_mass() for r in network.roads.values())
    ledger.final_momentum = math.fsum(r.total_momentum() for r in network.roads.values())
    return SimResult(
        times=np.array(times),
        flux_series={end: np.array([(s[end][0], s[end][2]) for s in snapshots])
                     for end in snapshots[0]},
        final_rho=final_rho, final_v=v, ledger=ledger, steps=steps, steady=steady,
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
