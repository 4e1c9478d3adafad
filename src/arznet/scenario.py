"""Scenario files: JSON description of roads, junctions and simulation settings.

Roads parse to ``RoadSpec``s keyed by id, junctions to ``sim.NetworkJunction``s
with their validated ``JunctionSpec``, settings to the run's one ``sim.SimConfig``;
a malformed value or an unknown key raises a ``ScenarioError`` naming its field.
Roads are initialized on the Greenshields equilibrium curve, from a density ``rho0``
or a desired flux ``q_desired`` (converted through the free-flow root).  Units are
veh/km, km/h, veh/h.
"""

from __future__ import annotations

import dataclasses
import json
import sys
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


@dataclass
class Scenario:
    roads: dict[str, RoadSpec]  # by road id, in file order
    junctions: list[sim.NetworkJunction]
    sim: sim.SimConfig = field(default_factory=sim.SimConfig)


def _require(cond, msg, *args):
    """Raise ``ScenarioError(msg.format(*args))`` unless ``cond``; valid input formats nothing."""
    if not cond:
        raise ScenarioError(msg.format(*args))


def _number(value, where: str, key: str, kind=float):
    """A finite JSON number as ``kind``, as an int only if whole (100.0 is)."""
    _require(type(value) in (int, float) and abs(value) <= sys.float_info.max,
             "{}.{}: must be a finite number, got {!r}", where, key, value)
    _require(kind is float or float(value).is_integer(),
             "{}.{}: must be a whole number, got {!r}", where, key, value)
    return kind(value)


def _known_keys(entry: dict, known, prefix: str):
    """Reject a key outside ``known``: a misspelt field would silently take its default."""
    for key in entry:
        if key not in known:
            raise ScenarioError(f"{prefix}{key}: unknown key, expected one of {', '.join(known)}")


def parse(data: dict) -> Scenario:
    """Build a validated scenario from a decoded JSON document: roads, each junction, then sim."""
    _require(isinstance(data, dict), "top level must be an object")
    _known_keys(data, ("roads", "junctions", "sim"), "")
    _require("roads" in data and isinstance(data["roads"], list), "missing 'roads' list")
    roads = {}
    for k, entry in enumerate(data["roads"]):
        where = f"roads[{k}]"
        _require(isinstance(entry, dict), "{}: must be an object", where)
        _known_keys(entry, ("id", "rho_max", "v_ref", "gamma", "length", "cells", "rho0",
                            "q_desired"), where + ".")
        for key in ("id", "rho_max", "v_ref", "gamma"):
            _require(key in entry, "{}: missing field '{}'", where, key)
        rid = entry["id"]
        _require(isinstance(rid, str), "{}.id: must be a string, got {!r}", where, rid)
        _require(rid not in roads, "{}: duplicate road id {!r}", where, rid)
        values = [_number(entry[key], where, key) for key in ("rho_max", "v_ref", "gamma")]
        length = _number(entry.get("length", 1.0), where, "length")
        cells = _number(entry.get("cells", 100), where, "cells", int)
        _require(length > 0 and cells >= 1, "{}: length/cells must be positive", where)
        _require(("rho0" in entry) != ("q_desired" in entry),
                 "{}: exactly one of 'rho0' or 'q_desired' is required", where)
        key = "rho0" if "rho0" in entry else "q_desired"
        value = _number(entry[key], where, key)
        try:
            params = RoadParams(*values)
            rho0 = value if key == "rho0" else fd.equilibrium_density(params, value)
        except ValueError as exc:
            raise ScenarioError(f"{where}: {exc}") from exc
        _require(0.0 <= rho0 <= params.rho_max, "{}: rho0={} outside [0, rho_max]", where, rho0)
        roads[rid] = RoadSpec(rid, params, length, cells, rho0)

    _require(isinstance(data.get("junctions", []), list), "'junctions' must be a list")
    junctions = []
    for k, entry in enumerate(data.get("junctions", [])):
        where = f"junctions[{k}]"
        _require(isinstance(entry, dict), "{}: must be an object", where)
        _known_keys(entry, ("kind", "in", "out", "alphas", "priority"), where + ".")
        for key in ("kind", "in", "out"):
            _require(key in entry, "{}: missing field '{}'", where, key)
        try:
            kind = jn.JunctionKind(entry["kind"])
        except ValueError as exc:
            raise ScenarioError(f"{where}: unknown kind {entry['kind']!r}") from exc
        for key in ("in", "out"):
            _require(isinstance(entry[key], list), "{}.{}: must be a list of road ids", where, key)
            for rid in entry[key]:
                _require(isinstance(rid, str) and rid in roads, "{}: unknown road id {!r}", where, rid)
        in_ids, out_ids = tuple(entry["in"]), tuple(entry["out"])
        alphas = None
        if "alphas" in entry:
            _require(isinstance(entry["alphas"], list), "{}.alphas: must be a list of numbers", where)
            alphas = tuple(_number(a, where, f"alphas[{i}]") for i, a in enumerate(entry["alphas"]))
        priority = _number(entry["priority"], where, "priority") if "priority" in entry else None
        try:  # arity, alphas and priority are validated here
            spec = jn.JunctionSpec(kind, tuple(roads[r].params for r in in_ids),
                                   tuple(roads[r].params for r in out_ids), alphas, priority)
        except ValueError as exc:
            raise ScenarioError(f"{where}: {exc}") from exc
        junctions.append(sim.NetworkJunction(spec, in_ids, out_ids))
    # a road b with a junction at each end names its ends b[0] and b[-1] (sim.end_labels)
    attached = [rid for nj in junctions for rid in nj.in_ids + nj.out_ids]
    labels = {f"{rid}[{idx}]": rid for rid in roads if attached.count(rid) > 1 for idx in (0, -1)}
    for k, rid in enumerate(roads):
        _require(rid not in labels, "roads[{}].id: {!r} is an end label of road {!r}",
                 k, rid, labels.get(rid))

    sim_entry = data.get("sim", {})
    _require(isinstance(sim_entry, dict), "'sim' must be an object")
    # every SimConfig field may be set, with the JSON type of its default
    kinds = {f.name: type(f.default) for f in dataclasses.fields(sim.SimConfig)}
    _known_keys(sim_entry, kinds, "sim.")
    given = {key: _number(value, "sim", key, kinds[key]) for key, value in sim_entry.items()}
    try:
        settings = sim.SimConfig(**given)
    except ValueError as exc:
        raise ScenarioError(f"sim: {exc}") from exc
    return Scenario(roads=roads, junctions=junctions, sim=settings)


def load(path) -> Scenario:
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ScenarioError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    return parse(data)


def dump(scenario: Scenario) -> dict:
    """JSON document that re-parses to an identical scenario."""
    doc = {"roads": [], "junctions": [], "sim": dataclasses.asdict(scenario.sim)}
    for r in scenario.roads.values():
        doc["roads"].append({
            "id": r.road_id, "rho_max": r.params.rho_max, "v_ref": r.params.v_ref,
            "gamma": r.params.gamma, "length": r.length, "cells": r.cells, "rho0": r.rho0,
        })
    for j in scenario.junctions:
        entry = {"kind": j.spec.kind.value, "in": list(j.in_ids), "out": list(j.out_ids)}
        if j.spec.alphas is not None:
            entry["alphas"] = list(j.spec.alphas)
        if j.spec.priority is not None:
            entry["priority"] = j.spec.priority
        doc["junctions"].append(entry)
    return doc


def build_junction_spec(scenario: Scenario, nj: sim.NetworkJunction) -> jn.JunctionSpec:
    return nj.spec


def junction_states(scenario: Scenario, nj: sim.NetworkJunction) -> list[TrafficState]:
    return [scenario.roads[rid].initial_state for rid in nj.in_ids + nj.out_ids]


def build_network(scenario: Scenario) -> sim.Network:
    roads = {
        r.road_id: sim.road_from_state(r.road_id, r.params, r.length, r.cells, r.initial_state)
        for r in scenario.roads.values()
    }
    return sim.Network(roads=roads, junctions=list(scenario.junctions))
