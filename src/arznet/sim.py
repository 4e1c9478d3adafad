"""First-order Godunov finite-volume simulator for the ARZ model on a road network.

Interior interface fluxes are 1-to-1 junction solves with identical road
parameters (demand/supply with the attribute advected downstream); node fluxes
come from the junction Riemann solvers evaluated on the adjacent boundary cells.
External road ends use ghost cells frozen at the initial far-field state.

Each step evaluates p(rho), w, v and the max wave speed once per group of roads
(``_cells``); the CFL bound and the fluxes of every edge, the external ends
included, are computed from that one result. A group's work arrays are made
with its batch and written over by every step, so no step allocates an array
as long as a road; the groups of one shape share those whose values die
within one call.

The time loop (``run_batch``) steps networks of one topology as one batch,
and each member keeps its own clock. ``run`` is its one-member case. Roads
that share their parameters, length and cell count form a group, whose cells
are one (B, G, n) block: row b, slot s holds member b's road s of the group,
and one call of each kernel steps them all. A group grows while its block
holds at most ``_GROUP_VALUES`` cell values (members x roads x cells); a
group of one road is the ordinary case.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import partial
from typing import NamedTuple

import numpy as np

from . import fundamental as fd
from . import junction as jn
from .fundamental import RoadParams, TrafficState
from .rootfind import SolverFailure


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
        if self.cells < 1 or not 0 < self.length < math.inf:  # a NaN length fails both
            raise ValueError(f"road needs positive length and at least one cell, "
                             f"and a finite length; got {self.length} km, {self.cells} cells")
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

    @property
    def ends(self) -> list[tuple[str, int]]:
        """(road id, edge index) of each road end at the junction, in its branch order:
        an incoming road meets it at its right end (-1), an outgoing road at its left (0)."""
        return [(rid, -1) for rid in self.in_ids] + [(rid, 0) for rid in self.out_ids]


@dataclass
class Network:
    roads: dict[str, DiscretizedRoad]
    junctions: list[NetworkJunction] = field(default_factory=list)

    def __post_init__(self):
        # the ends of every junction, in junction order: the order of the junction fluxes
        self.junction_ends = []
        for j in self.junctions:
            for rid, idx in j.ends:
                if rid not in self.roads:
                    raise ValueError(f"junction references unknown road {rid!r}")
                if (rid, idx) in self.junction_ends:
                    raise ValueError(f"road end ({rid!r}, {idx}) attached to two junctions")
                self.junction_ends.append((rid, idx))
            params = tuple(self.roads[rid].params for rid, _ in j.ends)
            if j.spec.incoming + j.spec.outgoing != params:
                raise ValueError(f"junction spec does not match its roads {j.in_ids + j.out_ids}")
        # (road id, edge index) of each end without a junction: in road order, left before right
        self.external_ends = [(rid, idx) for rid in self.roads for idx in (0, -1)
                              if (rid, idx) not in self.junction_ends]


STEADY_WINDOW = 100    # consecutive steps below steady_tol that make a run steady
MAX_STEPS = 1_000_000


@dataclass(frozen=True)
class SimConfig:
    t_end: float = 0.25          # [h]
    cfl: float = 0.5
    output_stride: int = 10
    steady_tol: float = 1e-6     # relative junction-flux change

    def __post_init__(self):
        if not 0.0 < self.cfl <= 1.0:
            raise ValueError(f"cfl must lie in ]0,1], got {self.cfl}")
        # a NaN fails the comparison, and inf is not whole
        if not (self.output_stride >= 1 and float(self.output_stride).is_integer()):
            raise ValueError(f"output_stride must be at least 1 and whole, got {self.output_stride}")
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
    (pl, sl), (pr, sr) = left, right
    (q,), _, (w,), *_ = jn._single_inflow((pl, pr), (sl.rho, sr.rho), (sl.v, sr.v), (1.0,))[0]
    return q, q * w


# A group of same-parameter roads grows while its block holds at most this many cell
# values (members x roads x cells). On a 2-core Xeon with 2 MB of L2 per core, a step of
# two same-parameter roads as one block took 16-32 % less time than as two blocks up to
# 5,000 values, and 13-23 % more at 10,000-50,000 values: the temporaries no longer fit
# in L2.
_GROUP_VALUES = 4096


class _Work(NamedTuple):
    """The arrays that every step of a group writes over, laid out by edge: (B, G, n + 1)
    for n cells. Row b, slot s is member b's road s of the group.

    ``p = p(rho)``, ``w`` and ``rho`` are those of the left state of each
    edge: the frozen left ghost, then cells 0..n-1. ``v`` is the right speed
    of each edge: cells 0..n-1, then the frozen right ghost. The group owns
    the first five, which hold values from ``_cells`` to the update; the rest
    are dead between the calls that write them, and the groups of one shape
    share them.
    """

    p: np.ndarray         # p, w and v: written by ``_cells``
    w: np.ndarray
    v: np.ndarray
    mass: np.ndarray      # the demand, then the mass flux
    momentum: np.ndarray  # the supply, then the momentum flux
    rho: np.ndarray
    # jn.demand_supply's sonic point, capacity and modified density; the first also
    # holds the wave speeds of ``_cells`` and the differences of the update
    scratch: tuple[np.ndarray, np.ndarray, np.ndarray]
    mask: np.ndarray      # bool


@dataclass
class RoadRows:
    """A group of roads of every member of a batch, as one block: the roads ``ids``,
    which share their parameters, length and cell count. Row b, slot s of each array
    is member b's road ``ids[s]``; a group of one road is the ordinary case.

    ``ghosts`` holds each road's frozen far-field data in four columns: the
    left ghost's density, p(rho) and w, then the right ghost's speed. Its
    ``Batch`` gives it ``work``, so that no step allocates an array as long as a road.
    """

    road: DiscretizedRoad   # the first member's road ids[0]: parameters, cells and dx
    ids: tuple[str, ...]
    rho: np.ndarray         # (B, G, n)
    y: np.ndarray           # (B, G, n)
    ghosts: np.ndarray      # (B, G, 4)
    work: _Work = field(init=False, repr=False)


def _ghost_columns(road: DiscretizedRoad) -> tuple[float, float, float, float]:
    g = road.ghost_left
    p = fd._pressure(road.params, g.rho)
    return g.rho, p, g.v + p if g.rho >= fd.VACUUM_RHO else g.v, road.ghost_right.v


@dataclass
class Batch:
    """Networks of one topology stepped as one: member b is row b of each group's arrays.

    The members share the junctions and each road's parameters, length and
    cell count; their cells and ghosts differ. ``where[rid]`` is the (group,
    slot) of road ``rid``, and ``junction_ends`` the (group, slot, edge index)
    of each end of ``Network.junction_ends``, in its order.
    """

    net: Network   # the first member's: junctions and road ends
    groups: list[RoadRows]

    def __post_init__(self):
        self.where = {rid: (g, s) for g, rows in enumerate(self.groups)
                      for s, rid in enumerate(rows.ids)}
        self.junction_ends = [(*self.where[rid], idx) for rid, idx in self.net.junction_ends]
        shared = {}
        for rows in self.groups:
            shape = (*rows.rho.shape[:2], rows.road.cells + 1)
            if shape not in shared:
                shared[shape] = (np.empty(shape), tuple(np.empty(shape) for _ in range(3)),
                                 np.empty(shape, dtype=bool))
            rows.work = _Work(*(np.empty(shape) for _ in range(5)), *shared[shape])

    def take(self, rows) -> Batch:
        """The batch of the members selected by ``rows``, as copies, with new work arrays."""
        return Batch(self.net, [RoadRows(r.road, r.ids, r.rho[rows], r.y[rows], r.ghosts[rows])
                                for r in self.groups])


def _grouped(roads: dict[str, DiscretizedRoad], members: int) -> list[list[str]]:
    """Road ids in groups, in road order: a road joins the first group of its parameters,
    length and cell count whose block stays within ``_GROUP_VALUES`` with it."""
    groups = []
    for rid, road in roads.items():
        for ids in groups:
            first = roads[ids[0]]
            if ((first.params, first.length, first.cells) == (road.params, road.length, road.cells)
                    and members * (len(ids) + 1) * road.cells <= _GROUP_VALUES):
                ids.append(rid)
                break
        else:
            groups.append([rid])
    return groups


def batch_of(networks: list[Network]) -> Batch:
    """The networks as one batch. A single network's road that is alone in its group
    is viewed, not copied, so that stepping the batch updates it in place."""
    if not networks:
        raise ValueError("a batch needs at least one network")
    first = networks[0]
    shape = [(rid, r.params, r.length, r.cells) for rid, r in first.roads.items()]
    for net in networks[1:]:
        if (net.junctions != first.junctions
                or [(rid, r.params, r.length, r.cells) for rid, r in net.roads.items()] != shape):
            raise ValueError("batch members must share their roads and junctions")
    groups = []
    for ids in _grouped(first.roads, len(networks)):
        members = [[net.roads[rid] for rid in ids] for net in networks]
        road = first.roads[ids[0]]
        if len(networks) == 1 and len(ids) == 1:
            rho, y = road.rho[None, None], road.y[None, None]
        else:
            rho = np.array([[r.rho for r in m] for m in members])
            y = np.array([[r.y for r in m] for m in members])
        ghosts = np.array([[_ghost_columns(r) for r in m] for m in members])
        groups.append(RoadRows(road, tuple(ids), rho, y, ghosts))
    return Batch(first, groups)


def _cells(rows: RoadRows) -> np.ndarray:
    """Evaluate p(rho), w and v of a group once into its work arrays, for the CFL bound and
    the fluxes, and return the max wave speed over the cells per member and road: (B, G)."""
    par, n, rho, work = rows.road.params, rows.road.cells, rows.rho, rows.work
    p, w, v = work.p, work.w, work.v
    p[..., 0], w[..., 0], v[..., n] = rows.ghosts[..., 1], rows.ghosts[..., 2], rows.ghosts[..., 3]
    p_c, w_c, v_c = p[..., 1:], w[..., 1:], v[..., :-1]
    fd._pressure(par, rho, out=p_c)
    # vacuum convention: w = v = v_ref
    vac = np.less(rho, fd.VACUUM_RHO, out=work.mask[..., 1:])
    vacuum = vac.any()
    np.divide(rows.y, np.where(vac, 1.0, rho) if vacuum else rho, out=w_c)
    np.maximum(np.subtract(w_c, p_c, out=v_c), 0.0, out=v_c)
    if vacuum:
        w_c[vac] = v_c[vac] = par.v_ref
    lam1 = np.multiply(p_c, 1.0 + par.gamma, out=work.scratch[0][..., 1:])
    np.abs(np.subtract(w_c, lam1, out=lam1), out=lam1)
    # the last edge's left state as at an external end: w = v + p(rho), not y / rho
    w[..., n] = np.where(rho[..., -1] >= fd.VACUUM_RHO, v[..., n - 1] + p[..., n], v[..., n - 1])
    return np.maximum(np.maximum(lam1.max(axis=2), v_c.max(axis=2)), par.v_ref)


def _checked_cells(batch: Batch) -> list[np.ndarray]:
    """``_cells`` of each group; a non-finite state raises a SolverFailure that carries the
    member's ``row``, naming the first such road in road order."""
    speeds = [_cells(rows) for rows in batch.groups]
    if all(np.isfinite(speed).all() for speed in speeds):
        return speeds
    for rid in batch.net.roads:
        g, s = batch.where[rid]
        bad = ~np.isfinite(speeds[g][:, s])
        if bad.any():
            raise _in_row(SolverFailure(f"non-finite state on road {rid}"), int(np.argmax(bad)))


def stable_dt(batch: Batch, cfl: float, speeds: list[np.ndarray]) -> np.ndarray:
    """CFL time step of each member over all roads, from this step's ``_cells`` speeds per group."""
    dt = math.inf
    for rows, speed in zip(batch.groups, speeds):
        # a group's smallest cfl * dx / speed, exactly: division rounds monotonically
        dt = np.minimum(dt, cfl * rows.road.dx / speed.max(axis=1))
    return dt


def _in_row(exc: Exception, row: int) -> Exception:
    exc.row = row
    return exc


def _junction_edges(batch: Batch, dt: np.ndarray, cfl: float) -> tuple[np.ndarray, np.ndarray]:
    """(mass flux, momentum flux, w) of each member at each junction road end: shape
    (members, ends, 3), the ends in ``Network.junction_ends`` order; and each member's
    ``dt``, cut by ``_shock_dt`` (a dt of 0 is never cut). A junction's SolverFailure
    names the junction and its roads, and carries the member's ``row``, the junction's
    position ``junction`` and the member's (rho, v) per end ``states``, in branch order.
    The end cells, which ``_checked_cells`` has found finite, go to the solver as
    ``fd.from_conservative``'s (rho, v) in plain floats."""
    states = []  # per junction, each member's densities and speeds at its ends: a tuple of each
    reach = []   # per junction, each incoming road's parameters and cfl * dx
    table = iter(batch.junction_ends)
    for nj in batch.net.junctions:
        ends = [(batch.groups[g], s, idx) for g, s, idx in itertools.islice(table, len(nj.ends))]
        cols = [map(partial(fd._primitive, r.road.params), r.rho[:, s, idx].tolist(),
                    r.y[:, s, idx].tolist()) for r, s, idx in ends]
        states.append([tuple(zip(*member)) for member in zip(*cols)])
        reach.append([(r.road.params, cfl * r.road.dx) for r, _, _ in ends[:len(nj.in_ids)]])
    dts = dt.tolist()
    jfs = []  # member-major: one (mass flux, momentum flux, w) per end
    for row in range(len(dts)):
        for k, (nj, js, ends) in enumerate(zip(batch.net.junctions, states, reach)):
            rho, v = js[row]
            try:
                q_in, q_out, w_in, w_out, _, _ = jn.fluxes(nj.spec, rho, v)
                dts[row] = _shock_dt(ends, rho, v, q_in, w_in, dts[row])
            except SolverFailure as exc:
                exc.junction, exc.states = k, tuple(zip(rho, v))
                exc.args = (f"{exc} at junction {k} ({', '.join(nj.in_ids)} -> "
                            f"{', '.join(nj.out_ids)})",)
                raise _in_row(exc, row)
            mom_in = [q * wv for q, wv in zip(q_in, w_in)]
            jfs += zip(q_in, mom_in, w_in)
            if len(nj.out_ids) == 1:
                # hand the outgoing road the exact incoming totals
                jfs.append((math.fsum(q_in), math.fsum(mom_in), w_out[0]))
            else:
                jfs += [(q, q * wv, wv) for q, wv in zip(q_out, w_out)]
    edges = np.array(jfs, dtype=float).reshape(len(dts), len(batch.net.junction_ends), 3)
    return edges, np.array(dts)


def _shock_dt(ends, rho, v, q, w, dt: float) -> float:
    """``dt``, cut where the shock that a junction sends into one of its incoming roads
    would cross more than cfl of the road's end cell. Per incoming road (``zip`` stops
    there): its parameters and cfl * dx, its end cell's rho and v, its flux and attribute.

    The flux is concave on {w = const} and 0 at vacuum and at the zero-speed density
    p^-1(w). So a shock into an outgoing road is no faster than the speed v of the state
    ahead of it, and a rarefaction no faster than the end cells' own waves, which
    ``stable_dt`` bounds. A shock into an incoming road can be faster.
    """
    for (p, reach), rho_k, v_k, q_k, w_k in zip(ends, rho, v, q, w):
        f = rho_k * v_k
        # cheap bounds first: the shock is slower than |lambda_1| <= gamma w at its trace,
        # and than the chord from the end state to the zero-speed density
        if (q_k >= f or p.gamma * w_k * dt <= reach
                or f * dt <= reach * (fd._pressure_inv(p, w_k) - rho_k)):
            continue
        s = jn.shock_speed(p, w_k, q_k, rho_k, f)
        if s * dt > reach:
            dt = reach / s
    return dt


def step(batch: Batch, cfg: SimConfig, t_left: np.ndarray):
    """Advance every member by one whole step: member b by its CFL time step, or by
    ``t_left[b]`` when that is shorter, cut further where a junction sends a shock into
    one of its incoming roads that is faster than the road's cells' waves.

    Returns each member's dt; the (mass flux, momentum flux, w) of each
    member at each junction road end, as ``_junction_edges`` gives them; and
    the edge fluxes (mass, momentum) per road, one row per member: views of
    its group's (B, G, n + 1) work arrays at its slot, valid only until the
    next ``step`` on this batch. A non-finite state and a junction's
    SolverFailure carry the member's ``row``.
    """
    # cfl <= 1 (SimConfig) keeps dt within dx / speed on every road
    dt = np.minimum(stable_dt(batch, cfg.cfl, _checked_cells(batch)), t_left)

    # every edge as a 1-to-1 interface; junction edges are overwritten below
    edge = []
    for rows in batch.groups:
        work = rows.work
        work.rho[..., 0], work.rho[..., 1:] = rows.ghosts[..., 0], rows.rho
        fm, fy = jn.demand_supply(rows.road.params, work.rho, work.p, work.w, work.v,
                                  (work.mass, work.momentum, *work.scratch, work.mask))
        np.minimum(fm, fy, out=fm)
        edge.append((fm, np.multiply(work.w, fm, out=fy)))

    # the junction solves: a scalar loop over the members, which may cut dt
    junction_edges, dt = _junction_edges(batch, dt, cfg.cfl)
    for k, (g, s, idx) in enumerate(batch.junction_ends):
        fm, fy = edge[g]
        fm[:, s, idx], fy[:, s, idx] = junction_edges[:, k, 0], junction_edges[:, k, 1]

    for rows, (fm, fy) in zip(batch.groups, edge):
        lam = (dt / rows.road.dx)[:, None, None]
        diff = rows.work.scratch[0][..., 1:]
        for u, f in ((rows.rho, fm), (rows.y, fy)):
            u -= np.multiply(np.subtract(f[..., 1:], f[..., :-1], out=diff), lam, out=diff)
            np.maximum(u, 0.0, out=u)
    return dt, junction_edges, {rid: (edge[g][0][:, s], edge[g][1][:, s])
                                for rid, (g, s) in batch.where.items()}


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

    Each member keeps its own t, dt, ledger, records and steady window, and
    its arithmetic is that of a run of its network alone. A member that
    reaches t_end or turns steady leaves the batch with its result, and its
    network holds its final state, as after ``run``.
    """
    batch = batch_of(networks)
    members = np.arange(len(networks))  # the member of each row
    mass0 = [math.fsum(r.total_mass() for r in net.roads.values()) for net in networks]
    momentum0 = [math.fsum(r.total_momentum() for r in net.roads.values()) for net in networks]
    results = [None] * len(networks)

    t = np.zeros(len(networks))
    flows = np.zeros((len(_FLOWS), len(networks)))
    steady = np.zeros(len(networks), dtype=int)
    prev = None
    steps = 0
    while True:
        try:
            dt, jfs, edge = step(batch, cfg, cfg.t_end - t)
        except SolverFailure as exc:
            raise _at(exc, members[exc.row], steps, t[exc.row])
        if not steps:
            # per member, (t, the junction fluxes that advanced it to t): step 1 solves the
            # initial data's, the t = 0 record. Plain lists: a record pins no step's array
            records = [[(0.0, jf)] for jf in jfs.tolist()]
        for rid, idx in batch.net.external_ends:
            fm, fy = edge[rid]
            k = 0 if idx == 0 else 1
            flows[k] += dt * fm[:, idx]
            flows[k + 2] += dt * fy[:, idx]
        t += dt
        steps += 1
        if jfs.shape[1]:
            cur = jfs[:, :, 0]
            if prev is not None:
                change = np.abs(cur - prev).max(axis=1) / np.maximum(1.0, np.abs(cur).max(axis=1))
                steady = np.where(change < cfg.steady_tol, steady + 1, 0)
            prev = cur

        done = ~(t < cfg.t_end * (1.0 - 1e-12)) | (steady >= STEADY_WINDOW) | (steps >= MAX_STEPS)
        for row in np.flatnonzero(done | (steps % cfg.output_stride == 0)):
            m = members[row]
            if records[m][-1][0] != t[row]:  # a step of dt = 0 (t_end = 0) stays at t = 0
                records[m].append((float(t[row]), jfs[row].tolist()))
        if done.any():
            try:
                _checked_cells(batch)  # the final state, and its speeds into work.v
            except SolverFailure as exc:
                raise _at(exc, members[exc.row], steps, t[exc.row])
            for row in np.flatnonzero(done):
                m = members[row]
                ledger = MassLedger(initial_mass=mass0[m], initial_momentum=momentum0[m],
                                    **{k: float(x) for k, x in zip(_FLOWS, flows[:, row])})
                results[m] = _result(networks[m], batch, row, records[m],
                                     ledger, steps, bool(steady[row] >= STEADY_WINDOW))
            if done.all():
                return results
            keep = ~done
            batch, members, t, steady = batch.take(keep), members[keep], t[keep], steady[keep]
            flows = flows[:, keep]
            prev = None if prev is None else prev[keep]


def _result(network, batch, row, records, ledger, steps, steady) -> SimResult:
    """Member ``row``'s result; its final cells go back into its own ``network``."""
    final_rho, v = {}, {}
    for rid, road in network.roads.items():
        g, s = batch.where[rid]
        rows = batch.groups[g]
        road.rho[...], road.y[...] = rows.rho[row, s], rows.y[row, s]
        final_rho[rid] = road.rho.copy()
        v[rid] = rows.work.v[row, s, :-1].copy()  # not a view that pins the group's arrays
    ledger.final_mass = math.fsum(r.total_mass() for r in network.roads.values())
    ledger.final_momentum = math.fsum(r.total_momentum() for r in network.roads.values())
    jfs = np.array([jf for _, jf in records])
    return SimResult(
        times=np.array([t for t, _ in records]),
        flux_series={end: jfs[:, k, [0, 2]] for k, end in enumerate(network.junction_ends)},
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
    """Final density/speed profiles as `branch_id,cell,rho,v` rows, as ``csv.writer`` writes them.
    The profiles are float64 arrays, as ``run`` makes them."""
    import csv
    import io

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["branch_id", "cell", "rho", "v"])
        for rid, rho in result.final_rho.items():
            v = result.final_v[rid]
            # the road id as csv.writer quotes it (less ",\r\n"); cells and float reprs need no quotes
            buf = io.StringIO()
            csv.writer(buf).writerow([rid, ""])
            head = buf.getvalue()[:-3]
            # cells with equal bits have equal reprs (-0.0 and 0.0 differ in bits), so each run of
            # equal cells is formatted once; each block starts a run
            rb, vb = rho.view(np.int64), v.view(np.int64)
            first = np.ones(len(rho), bool)
            first[1:] = (rb[1:] != rb[:-1]) | (vb[1:] != vb[:-1])
            first[::_CSV_ROWS] = True
            # a bounded number of rows at a time keeps the peak memory flat
            for lo in range(0, len(rho), _CSV_ROWS):
                r, s = rho[lo:lo + _CSV_ROWS], v[lo:lo + _CSV_ROWS]
                runs = np.flatnonzero(first[lo:lo + _CSV_ROWS])
                tails = [f",{x!r},{y!r}\r\n" for x, y in zip(r[runs].tolist(), s[runs].tolist())]
                rows = np.repeat(np.array(tails, object), np.diff(runs, append=len(r))).tolist()
                fh.write("".join([f"{head},{i}{t}" for i, t in zip(itertools.count(lo), rows)]))
