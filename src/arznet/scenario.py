"""Scenario files: JSON description of roads, junctions and simulation settings.

Roads are initialized on the Greenshields equilibrium curve, either from a
density ``rho0`` or from a desired flux ``q_desired`` (converted through the
free-flow root).  Units are veh/km, km/h, veh/h.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field

from . import fundamental as fd
from . import junction as jn
from . import sim
from .fundamental import RoadParams, TrafficState


class ScenarioError(ValueError):
    """Malformed or inconsistent scenario content; message names the offending field."""


@dataclass(frozen=True)
class RoadSpec:
    road_id: str
    params: RoadParams
    length: float
    cells: int
    rho0: float

    @property
    def initial_state(self) -> TrafficState:
        return fd.equilibrium_state(self.params, self.rho0)


@dataclass(frozen=True)
class JunctionDecl:
    kind: jn.JunctionKind
    in_ids: tuple[str, ...]
    out_ids: tuple[str, ...]
    alphas: tuple[float, ...] | None = None
    priority: float | None = None


# The `sim` settings a scenario file may hold, with their types; the defaults
# are those of sim.SimConfig, and t_end defaults to _T_END.
_SIM_FIELDS = {"cfl": float, "t_end": float, "output_stride": int, "steady_tol": float}
_T_END = 0.25  # [h]


@dataclass
class Scenario:
    roads: list[RoadSpec]
    junctions: list[JunctionDecl]
    sim: sim.SimConfig = field(default_factory=lambda: sim.SimConfig(t_end=_T_END))

    def road(self, road_id: str) -> RoadSpec:
        for r in self.roads:
            if r.road_id == road_id:
                return r
        raise KeyError(road_id)


def _require(cond, msg):
    if not cond:
        raise ScenarioError(msg)


def parse(data: dict) -> Scenario:
    """Build a validated scenario from a decoded JSON document."""
    _require(isinstance(data, dict), "top level must be an object")
    _require("roads" in data and isinstance(data["roads"], list), "missing 'roads' list")
    roads = []
    seen = set()
    for k, entry in enumerate(data["roads"]):
        where = f"roads[{k}]"
        _require(isinstance(entry, dict), f"{where}: must be an object")
        for key in ("id", "rho_max", "v_ref", "gamma"):
            _require(key in entry, f"{where}: missing field '{key}'")
        rid = entry["id"]
        _require(rid not in seen, f"{where}: duplicate road id {rid!r}")
        seen.add(rid)
        try:
            params = RoadParams(float(entry["rho_max"]), float(entry["v_ref"]), float(entry["gamma"]))
        except (TypeError, ValueError) as exc:
            raise ScenarioError(f"{where}: {exc}") from exc
        length = float(entry.get("length", 1.0))
        cells = int(entry.get("cells", 100))
        _require(length > 0 and cells >= 1, f"{where}: length/cells must be positive")
        _require(("rho0" in entry) != ("q_desired" in entry),
                 f"{where}: exactly one of 'rho0' or 'q_desired' is required")
        if "rho0" in entry:
            rho0 = float(entry["rho0"])
        else:
            try:
                rho0 = fd.equilibrium_density(params, float(entry["q_desired"]))
            except ValueError as exc:
                raise ScenarioError(f"{where}: {exc}") from exc
        _require(0.0 <= rho0 <= params.rho_max,
                 f"{where}: rho0={rho0} outside [0, rho_max]")
        roads.append(RoadSpec(rid, params, length, cells, rho0))

    junctions = []
    for k, entry in enumerate(data.get("junctions", [])):
        where = f"junctions[{k}]"
        _require(isinstance(entry, dict), f"{where}: must be an object")
        for key in ("kind", "in", "out"):
            _require(key in entry, f"{where}: missing field '{key}'")
        try:
            kind = jn.JunctionKind(entry["kind"])
        except ValueError as exc:
            raise ScenarioError(f"{where}: unknown kind {entry['kind']!r}") from exc
        in_ids = tuple(entry["in"])
        out_ids = tuple(entry["out"])
        for rid in in_ids + out_ids:
            _require(rid in seen, f"{where}: unknown road id {rid!r}")
        alphas = tuple(float(a) for a in entry["alphas"]) if "alphas" in entry else None
        priority = float(entry["priority"]) if "priority" in entry else None
        junctions.append(JunctionDecl(kind, in_ids, out_ids, alphas, priority))

    sim_entry = data.get("sim", {})
    _require(isinstance(sim_entry, dict), "'sim' must be an object")
    try:
        given = {k: conv(sim_entry[k]) for k, conv in _SIM_FIELDS.items() if k in sim_entry}
        settings = sim.SimConfig(**{"t_end": _T_END, **given})
    except (TypeError, ValueError) as exc:
        raise ScenarioError(f"sim: {exc}") from exc
    scenario = Scenario(roads=roads, junctions=junctions, sim=settings)
    # arity/priority/alpha validation happens in JunctionSpec construction
    for decl in junctions:
        try:
            build_junction_spec(scenario, decl)
        except ValueError as exc:
            raise ScenarioError(str(exc)) from exc
    return scenario


def load(path) -> Scenario:
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ScenarioError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    return parse(data)


def dump(scenario: Scenario) -> dict:
    """JSON document that re-parses to an identical scenario."""
    doc = {"roads": [], "junctions": [], "sim": {k: getattr(scenario.sim, k) for k in _SIM_FIELDS}}
    for r in scenario.roads:
        doc["roads"].append({
            "id": r.road_id, "rho_max": r.params.rho_max, "v_ref": r.params.v_ref,
            "gamma": r.params.gamma, "length": r.length, "cells": r.cells, "rho0": r.rho0,
        })
    for j in scenario.junctions:
        entry = {"kind": j.kind.value, "in": list(j.in_ids), "out": list(j.out_ids)}
        if j.alphas is not None:
            entry["alphas"] = list(j.alphas)
        if j.priority is not None:
            entry["priority"] = j.priority
        doc["junctions"].append(entry)
    return doc


def build_junction_spec(scenario: Scenario, decl: JunctionDecl) -> jn.JunctionSpec:
    return jn.JunctionSpec(
        kind=decl.kind,
        incoming=tuple(scenario.road(rid).params for rid in decl.in_ids),
        outgoing=tuple(scenario.road(rid).params for rid in decl.out_ids),
        alphas=decl.alphas,
        priority=decl.priority,
    )


def junction_states(scenario: Scenario, decl: JunctionDecl) -> list[TrafficState]:
    return [scenario.road(rid).initial_state for rid in decl.in_ids + decl.out_ids]


def build_network(scenario: Scenario) -> sim.Network:
    roads = {
        r.road_id: sim.road_from_state(r.road_id, r.params, r.length, r.cells, r.initial_state)
        for r in scenario.roads
    }
    junctions = [
        sim.NetworkJunction(build_junction_spec(scenario, j), j.in_ids, j.out_ids)
        for j in scenario.junctions
    ]
    return sim.Network(roads=roads, junctions=junctions)


def sim_config(scenario: Scenario, cfl=None, t_end=None) -> sim.SimConfig:
    """The scenario's simulation settings with the command-line overrides that were given."""
    overrides = {"cfl": cfl, "t_end": t_end}
    return dataclasses.replace(scenario.sim, **{k: v for k, v in overrides.items() if v is not None})
