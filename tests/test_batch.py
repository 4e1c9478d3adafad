"""The batched time loop: each member of a batch runs as its network would run alone.

``sim.run_batch`` steps networks of one topology as rows of one array per
road, and ``sim.run`` is its one-member case. A member's arithmetic must be
that of its own run, bit for bit, whatever the other members do and
whenever they leave the batch.
"""

import copy
import json
from pathlib import Path

import numpy as np
import pytest

from arznet import cli, sim
from arznet import fundamental as fd
from arznet import junction as jn
from arznet.fundamental import RoadParams, TrafficState
from arznet.junction import JunctionKind, JunctionSpec
from arznet.rootfind import SolverFailure
from test_cli import MERGE_DOC
from test_sim import ROAD_IN, ramp_network

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

DATA = Path(__file__).parent / "data"

params = st.builds(RoadParams, rho_max=st.floats(20.0, 300.0), v_ref=st.floats(40.0, 160.0),
                   gamma=st.floats(0.5, 4.0))


@st.composite
def state(draw, p):
    """Vacuum, near vacuum, near jam or anywhere in between. Speeds above v_ref give
    wave speeds above v_ref, so members differ in dt and in their steps to t_end."""
    rho = draw(st.one_of(st.just(0.0), st.floats(0.0, 0.5 * fd.VACUUM_RHO),
                         st.floats(0.95 * p.rho_max, p.rho_max), st.floats(1e-3, p.rho_max)))
    return TrafficState(rho, draw(st.floats(0.0, 1.5 * p.v_ref)))


@st.composite
def topology(draw):
    """Three roads' parameters, lengths and cells, and a 1-to-1 chain, a diverge or a merge."""
    ps = [draw(params) for _ in range(3)]
    shape = [(draw(st.floats(0.5, 2.0)), draw(st.integers(1, 5))) for _ in range(3)]
    kind = draw(st.sampled_from(list(JunctionKind)))
    if kind is JunctionKind.ONE_TO_ONE:  # a -> b -> c: road b has a junction at each end
        junctions = [sim.NetworkJunction(JunctionSpec(kind, (ps[0],), (ps[1],)), ("a",), ("b",)),
                     sim.NetworkJunction(JunctionSpec(kind, (ps[1],), (ps[2],)), ("b",), ("c",))]
    elif kind is JunctionKind.DIVERGE:
        alpha = draw(st.floats(0.05, 0.95))
        spec = JunctionSpec(kind, (ps[0],), (ps[1], ps[2]), alphas=(alpha, 1.0 - alpha))
        junctions = [sim.NetworkJunction(spec, ("a",), ("b", "c"))]
    else:
        spec = JunctionSpec(kind, (ps[0], ps[1]), (ps[2],), priority=draw(st.floats(0.05, 0.95)))
        junctions = [sim.NetworkJunction(spec, ("a", "b"), ("c",))]
    return ps, shape, junctions


@st.composite
def member(draw, ps, shape):
    """One member's cells and ghosts: uniform roads, or a state per cell.

    An empty member (every road at vacuum) has constant junction fluxes and
    turns steady after ``STEADY_WINDOW`` steps.
    """
    kind = draw(st.sampled_from(["empty", "uniform", "cells"]))
    roads = []
    for p, (_, n) in zip(ps, shape):
        if kind == "empty":
            states = [TrafficState(0.0, p.v_ref)] * n
        elif kind == "uniform":
            states = [draw(state(p))] * n
        else:
            states = [draw(state(p)) for _ in range(n)]
        roads.append([fd.to_conservative(p, s) for s in states])
    return roads


@st.composite
def batches(draw):
    ps, shape, junctions = draw(topology())
    members = [draw(member(ps, shape)) for _ in range(draw(st.sampled_from([1, 2, 3, 4])))]
    # t_end of 90 to 180 steps at the slowest wave speed v_ref on the finest mesh
    dx = min(length / n for length, n in shape)
    cfl = draw(st.floats(0.3, 1.0))
    cfg = sim.SimConfig(t_end=draw(st.floats(90.0, 180.0)) * cfl * dx / max(p.v_ref for p in ps),
                        cfl=cfl, output_stride=draw(st.integers(1, 12)),
                        steady_tol=draw(st.sampled_from([0.0, 1e-9, 1e-6, 1e-3])))
    return ps, shape, junctions, members, cfg


def network(ps, shape, junctions, cells) -> sim.Network:
    roads = {}
    for rid, p, (length, n), cs in zip("abc", ps, shape, cells):
        rho, y = (np.array(col) for col in zip(*cs))
        roads[rid] = sim.DiscretizedRoad(rid, p, length, n, rho, y)
    return sim.Network(roads, junctions)


def assert_same_result(got: sim.SimResult, want: sim.SimResult):
    """Bit for bit: times, flux series, final rho and v, ledger, steps and steady."""
    assert (got.steps, got.steady) == (want.steps, want.steady)
    assert got.times.tobytes() == want.times.tobytes()
    assert list(got.flux_series) == list(want.flux_series)
    for end, series in want.flux_series.items():
        assert got.flux_series[end].tobytes() == series.tobytes(), end
    for rid in want.final_rho:
        assert got.final_rho[rid].tobytes() == want.final_rho[rid].tobytes(), rid
        assert got.final_v[rid].tobytes() == want.final_v[rid].tobytes(), rid
    assert got.ledger == want.ledger


@hypothesis.settings(max_examples=25, deadline=None)
@hypothesis.given(batches())
def test_each_member_runs_as_alone(case):
    ps, shape, junctions, members, cfg = case
    alone = []
    for cells in members:
        net = network(ps, shape, junctions, cells)
        try:
            alone.append((sim.run(net, cfg), net))
        except sim.MEMBER_FAILURES:
            hypothesis.reject()  # a junction solve failed on this member's data
    nets = [network(ps, shape, junctions, cells) for cells in members]
    results = sim.run_batch(nets, cfg)
    assert len(results) == len(members)
    for got, net, (want, net_alone) in zip(results, nets, alone):
        assert_same_result(got, want)
        for rid, road in net.roads.items():  # each network ends in its own final state
            assert road.rho.tobytes() == net_alone.roads[rid].rho.tobytes()
            assert road.y.tobytes() == net_alone.roads[rid].y.tobytes()


def graded_ramp(q2_desired, rho_far, rho_near):
    """The on-ramp with road 1's density graded linearly towards the merge: the
    merge's fluxes change at every step while the grade flows in."""
    net = ramp_network(q2_desired)
    road = net.roads["r1"]
    for k, rho in enumerate(np.linspace(rho_far, rho_near, road.cells)):
        road.rho[k], road.y[k] = fd.to_conservative(ROAD_IN, fd.equilibrium_state(ROAD_IN, rho))
    return net


def test_members_leave_the_batch_at_their_own_step():
    """An empty network turns steady at step 101, and a short slug at the merge
    later; the graded ramps run on to t_end."""
    cfg = sim.SimConfig(t_end=0.01)
    empty = ramp_network(1000.0)
    for road in empty.roads.values():
        road.rho[:] = road.y[:] = 0.0
        road.ghost_left = road.ghost_right = TrafficState(0.0, road.params.v_ref)
    slug = ramp_network(1000.0)
    slug.roads["r1"].rho[-3:], slug.roads["r1"].y[-3:] = fd.to_conservative(
        ROAD_IN, fd.equilibrium_state(ROAD_IN, 50.0))
    nets = [graded_ramp(1000.0, 5.0, 60.0), empty, slug, graded_ramp(3000.0, 60.0, 5.0)]
    alone = [sim.run(copy.deepcopy(net), cfg) for net in nets]
    assert [r.steady for r in alone] == [False, True, True, False]
    # the slug's steady window is still open when the empty network leaves
    assert sim.STEADY_WINDOW + 1 == alone[1].steps < alone[2].steps < alone[1].steps + 100
    assert alone[2].steps < min(alone[0].steps, alone[3].steps)
    for got, want in zip(sim.run_batch(nets, cfg), alone):
        assert_same_result(got, want)


def test_one_member_batch_steps_the_network_in_place():
    net = ramp_network(2000.0)
    arrays = {rid: (road.rho, road.y) for rid, road in net.roads.items()}
    batch = sim.batch_of([net])
    for rid, rows in batch.roads.items():
        assert rows.rho.base is arrays[rid][0] and rows.y.base is arrays[rid][1]


def test_members_must_share_the_topology():
    with pytest.raises(ValueError, match="share their roads and junctions"):
        sim.batch_of([ramp_network(2000.0), ramp_network(2000.0, cells=50)])
    with pytest.raises(ValueError, match="at least one network"):
        sim.run_batch([], sim.SimConfig())


RAMP_SWEEP = "1000.0,1400.0,1500.0,1750.0,2000.0,2500.0,3000.0,3500.0"


@pytest.mark.parametrize("settings, fixture", [
    ({"t_end": 0.005, "cfl": 0.5, "steady_tol": 0.0}, "capacity_drop_ramp_t_end.csv"),
    ({"t_end": 0.5, "cfl": 0.5}, "capacity_drop_ramp_steady.csv"),
], ids=["t_end", "steady"])
def test_capacity_drop_matches_the_one_run_per_point_output(settings, fixture, tmp_path, capsys):
    """The paper's on-ramp sweep, simulated, gives the bytes that one run per sweep
    point gave (recorded before the sweep ran as one batch)."""
    road = {"v_ref": 100.0, "length": 1.0, "cells": 100}
    doc = {"roads": [{"id": "r1", "rho_max": 180.0, "gamma": 1.2, "rho0": 30.0, **road},
                     {"id": "r2", "rho_max": 180.0, "gamma": 1.2, "rho0": 30.0, **road},
                     {"id": "r3", "rho_max": 90.0, "gamma": 1.7, "rho0": 10.0, **road}],
           "junctions": [{"kind": "merge", "in": ["r1", "r2"], "out": ["r3"], "priority": 0.5}],
           "sim": settings}
    path = tmp_path / "ramp.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "cap"
    assert cli.main(["capacity-drop", "--scenario", str(path), "--sweep", RAMP_SWEEP,
                     "--out", str(out)]) == 0
    assert (out / "capacity_drop.csv").read_bytes() == (DATA / fixture).read_bytes()


class TestFailuresNameTheirMember:
    def test_junction_failure_after_a_member_left(self, monkeypatch):
        """A failure names the member, not its row: member 0 has left the batch by then."""
        cfg = sim.SimConfig(t_end=0.01, steady_tol=0.0)
        nets = [ramp_network(1000.0), ramp_network(2000.0)]
        # a jam on road 2 of member 1: larger wave speeds, so more steps to t_end
        rho, y = fd.to_conservative(ROAD_IN, TrafficState(175.0, 1.0))
        nets[1].roads["r2"].rho[:], nets[1].roads["r2"].y[:] = rho, y
        steps = [sim.run(copy.deepcopy(net), cfg).steps for net in nets]
        assert steps[0] < steps[1]
        junction_fluxes, calls = jn.junction_fluxes, []

        def fail_once_member_0_left(spec, states):
            calls.append(1)
            # two initial solves, then two per step until member 0 leaves
            if len(calls) == 2 + 2 * steps[0] + 1:
                raise SolverFailure("forced failure")
            return junction_fluxes(spec, states)
        monkeypatch.setattr(jn, "junction_fluxes", fail_once_member_0_left)
        with pytest.raises(SolverFailure, match=rf"^forced failure at step {steps[0]}, "
                                                rf"t=0\.\d+ \(member 1\)$") as info:
            sim.run_batch(nets, cfg)
        assert info.value.member == 1

    def test_cfl_violation_names_member_step_and_t(self, monkeypatch):
        stable_dt = sim.stable_dt
        monkeypatch.setattr(sim, "stable_dt", lambda *args: 10.0 * stable_dt(*args))
        with pytest.raises(sim.CFLViolation, match=r"at step 0, t=0\.0 \(member 0\)$") as info:
            sim.run_batch([ramp_network(1000.0), ramp_network(2000.0)], sim.SimConfig())
        assert info.value.member == 0

    def test_capacity_drop_names_the_sweep_value(self, tmp_path, monkeypatch, capsys):
        path = tmp_path / "merge.json"
        path.write_text(json.dumps(MERGE_DOC))
        road2 = MERGE_DOC["roads"][1]
        rho2 = fd.equilibrium_density(RoadParams(road2["rho_max"], road2["v_ref"],
                                                 road2["gamma"]), 2000.0)
        junction_fluxes = jn.junction_fluxes

        def fail_on_point_2000(spec, states):
            if states[1].rho == rho2:  # road 2's end cell while it holds its initial state
                raise SolverFailure("forced failure")
            return junction_fluxes(spec, states)
        monkeypatch.setattr(jn, "junction_fluxes", fail_on_point_2000)
        code = cli.main(["capacity-drop", "--scenario", str(path), "--sweep", "1000,2000,3000"])
        assert code == cli.EXIT_NUMERIC
        assert capsys.readouterr().err == ("numerical failure: forced failure at step 0, t=0.0 "
                                           "(member 1), sweep value 2000.0\n")
