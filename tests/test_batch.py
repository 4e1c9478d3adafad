"""The batched time loop: each member of a batch runs as its network would run alone.

``sim.run_batch`` steps networks of one topology as rows of one array per
group of same-parameter roads, and ``sim.run`` is its one-member case. A
member's arithmetic must be that of its own run, bit for bit, whatever the
other members do and whenever they leave the batch.
"""

import copy
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from arznet import cli, scenario, sim
from arznet import fundamental as fd
from arznet import junction as jn
from arznet.fundamental import RoadParams, TrafficState
from arznet.junction import JunctionKind, JunctionSpec
from arznet.rootfind import SolverFailure
from shared import MERGE_DOC, ROAD_IN, ramp_doc, ramp_network
from shared_strategies import hypothesis, params, st

DATA = Path(__file__).parent / "data"


@st.composite
def state(draw, p):
    """Vacuum, near vacuum, near jam or anywhere in between. Speeds above v_ref give
    wave speeds above v_ref, so members differ in dt and in their steps to t_end."""
    rho = draw(st.one_of(st.just(0.0), st.floats(0.0, 0.5 * fd.VACUUM_RHO),
                         st.floats(0.95 * p.rho_max, p.rho_max), st.floats(1e-3, p.rho_max)))
    return TrafficState(rho, draw(st.floats(0.0, 1.5 * p.v_ref)))


@st.composite
def topology(draw):
    """Three roads' parameters, lengths and cells, and a 1-to-1 chain, a diverge, a merge
    or no junction at all.

    Road b or c may copy the parameters, length and cells of an earlier road, so
    that the two share a group: the incoming roads of a merge (a, b), the outgoing
    roads of a diverge (b, c), or roads of the chain a -> b -> c. Unconnected roads
    have no junction fluxes to turn steady: their members leave at t_end, each at
    its own step.
    """
    ps = [draw(params) for _ in range(3)]
    shape = [(draw(st.floats(0.5, 2.0)), draw(st.integers(1, 5))) for _ in range(3)]
    for k in (1, 2):
        earlier = draw(st.sampled_from([None, *range(k)]))
        if earlier is not None:
            ps[k], shape[k] = ps[earlier], shape[earlier]
    kind = draw(st.sampled_from([*JunctionKind, None]))
    if kind is None:
        junctions = []
    elif kind is JunctionKind.ONE_TO_ONE:  # a -> b -> c: road b has a junction at each end
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
        except SolverFailure:
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


def test_results_own_their_arrays():
    """A result's final cells are copies, not views that keep the batch's arrays alive."""
    results = sim.run_batch([ramp_network(2000.0), ramp_network(3000.0)],
                            sim.SimConfig(t_end=0.002))
    for res in results:
        for arr in (*res.final_rho.values(), *res.final_v.values()):
            assert arr.flags.owndata


def test_groups_of_one_shape_share_only_their_scratch_arrays():
    """Two roads of one mesh but different parameters are two groups of one shape: they
    share the arrays whose values die within one call, and step as if alone."""
    roads = {rid: sim.road_from_state(rid, par, 2.0, 40, fd.equilibrium_state(par, 30.0))
             for rid, par in (("a", ROAD_IN), ("b", RoadParams(150.0, 90.0, 1.5)))}
    for road in roads.values():
        road.rho[:20] *= 1.5
        road.y[:20] *= 1.5
    batches = [sim.batch_of([sim.Network(roads)])]
    batches += [sim.batch_of([sim.Network({rid: copy.deepcopy(road)})])
                for rid, road in roads.items()]
    a, b = (rows.work for rows in batches[0].groups)
    assert all(x is y for x, y in zip((a.rho, *a.scratch, a.mask), (b.rho, *b.scratch, b.mask)))
    assert not any(np.shares_memory(x, y) for x, y in zip(a[:5], b[:5]))
    t_left = np.full(1, 1e-5)  # below both roads' CFL steps: each batch takes this dt
    for _ in range(10):
        for batch in batches:
            assert sim.step(batch, sim.SimConfig(), t_left)[0][0] == t_left[0]
    both, alone = batches[0].groups, [g for batch in batches[1:] for g in batch.groups]
    for got, want in zip(both, alone):
        assert (got.rho.tobytes(), got.y.tobytes()) == (want.rho.tobytes(), want.y.tobytes())


def test_one_member_batch_steps_the_network_in_place():
    """A road alone in its group is stepped in its own arrays; r1 and r2 share a group."""
    net = ramp_network(2000.0)
    arrays = {rid: (road.rho, road.y) for rid, road in net.roads.items()}
    batch = sim.batch_of([net])
    alone = [rows for rows in batch.groups if len(rows.ids) == 1]
    assert [rows.ids for rows in alone] == [("r3",)]
    for rows in alone:
        (rid,) = rows.ids
        assert rows.rho.base is arrays[rid][0] and rows.y.base is arrays[rid][1]


def four_roads() -> sim.Network:
    """a -> b (1-to-1), b -> c, d (diverge): four roads, no two of the same parameters."""
    ps = [RoadParams(200.0, 100.0, 1.0), RoadParams(150.0, 100.0, 1.5),
          RoadParams(240.0, 100.0, 2.0), RoadParams(120.0, 100.0, 3.0)]
    roads = {rid: sim.road_from_state(rid, p, 1.0, 20, fd.equilibrium_state(p, 0.3 * p.rho_max))
             for rid, p in zip("abcd", ps)}
    return sim.Network(roads, [
        sim.NetworkJunction(JunctionSpec(JunctionKind.ONE_TO_ONE, (ps[0],), (ps[1],)), ("a",), ("b",)),
        sim.NetworkJunction(JunctionSpec(JunctionKind.DIVERGE, (ps[1],), (ps[2], ps[3]),
                                         alphas=(0.4, 0.6)), ("b",), ("c", "d"))])


@pytest.mark.parametrize("nets, calls", [
    ([ramp_network(2000.0)], 2),                                        # 1 x 2 x 100 values
    ([ramp_network(q) for q in range(1000, 4200, 400)], 2),             # 8 x 2 x 100
    ([four_roads()], 4),
    ([ramp_network(2000.0, cells=5000)], 3),                            # 1 x 2 x 5000
    ([ramp_network(q, cells=300) for q in range(1000, 4200, 400)], 3),  # 8 x 2 x 300
], ids=["ramp", "ramp-8-members", "four-roads", "ramp-5000-cells", "ramp-8-members-300-cells"])
def test_same_parameter_roads_share_a_group_up_to_its_size(monkeypatch, nets, calls):
    """One ``junction.demand_supply`` call per group and step. Roads of the same
    parameters, length and cells share a group while its block holds at most about 4096
    values (members x roads x cells); beyond that, stacking them was measured slower."""
    count = []
    demand_supply = jn.demand_supply
    monkeypatch.setattr(jn, "demand_supply", lambda *args: count.append(1) or demand_supply(*args))
    sim.step(sim.batch_of(nets), sim.SimConfig(), np.full(len(nets), math.inf))
    assert len(count) == calls


def test_grouped_roads_write_the_outputs_of_one_array_per_road(tmp_path, capsys):
    """Same-parameter roads at a merge (r1, r2) and at a diverge (d1, d2) share a group.
    ``simulate`` writes the bytes that the simulator of commit eff2658, which stepped
    each road as its own array, wrote for this scenario (``tests/data/grouped``)."""
    path = DATA / "grouped" / "scenario.json"
    net = scenario.build_network(scenario.load(path))
    assert [rows.ids for rows in sim.batch_of([net]).groups] == [("r1", "r2"), ("m",),
                                                                 ("d1", "d2")]
    assert cli.main(["simulate", "--scenario", str(path), "--out", str(tmp_path)]) == 0
    for name in ("fluxes.csv", "profiles.csv", "ledger.csv"):
        assert (tmp_path / name).read_bytes() == (DATA / "grouped" / name).read_bytes(), name


@pytest.mark.parametrize("make", [lambda: ramp_network(2000.0), four_roads],
                         ids=["merge", "four-roads"])
def test_one_junction_solve_per_junction_and_step(monkeypatch, make):
    """Step 1's junction pass gives the t = 0 record: no junction is solved twice."""
    net = make()
    calls, fluxes = [], jn.fluxes
    monkeypatch.setattr(jn, "fluxes", lambda *args: calls.append(1) or fluxes(*args))
    res = sim.run(net, sim.SimConfig(t_end=0.002))
    assert res.steps > 1 and len(calls) == res.steps * len(net.junctions)


@pytest.mark.parametrize("stride", [1, 10])
@pytest.mark.parametrize("make", [lambda: graded_ramp(2000.0, 5.0, 60.0), four_roads],
                         ids=["merge", "four-roads"])
def test_run_to_t_end_0_takes_one_step_of_dt_0(make, stride):
    """A run to t_end = 0 takes one step of dt = 0: its junction pass is the one t = 0
    record, on the initial data, and the cells stay as they were."""
    net = make()
    cells = {rid: (r.rho.tobytes(), r.y.tobytes()) for rid, r in net.roads.items()}
    ends = {(rid, idx): fd.from_conservative(net.roads[rid].params, net.roads[rid].rho[idx],
                                             net.roads[rid].y[idx])
            for rid, idx in net.junction_ends}
    res = sim.run(net, sim.SimConfig(t_end=0.0, output_stride=stride))
    assert res.steps == 1 and res.times.tolist() == [0.0]
    for nj in net.junctions:
        fl = jn.junction_fluxes(nj.spec, [ends[end] for end in nj.ends])
        for end, q, w in zip(nj.ends, fl.q_in + fl.q_out, fl.w_in + fl.w_out):
            assert res.flux_series[end].tolist() == [[q, w]], end
    assert {rid: (r.rho.tobytes(), r.y.tobytes()) for rid, r in net.roads.items()} == cells
    assert all(res.final_rho[rid].tobytes() == rho for rid, (rho, _) in cells.items())


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
    path = tmp_path / "ramp.json"
    path.write_text(json.dumps(ramp_doc(settings)))
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
        fluxes, calls = jn.fluxes, []

        def fail_once_member_0_left(spec, rho, v):
            calls.append((rho, v))
            # two solves per step until member 0 leaves
            if len(calls) == 2 * steps[0] + 1:
                raise SolverFailure("forced failure")
            return fluxes(spec, rho, v)
        monkeypatch.setattr(jn, "fluxes", fail_once_member_0_left)
        with pytest.raises(SolverFailure, match=rf"^forced failure at junction 0 "
                                                rf"\(r1, r2 -> r3\) at step {steps[0]}, "
                                                rf"t=0\.\d+ \(member 1\)$") as info:
            sim.run_batch(nets, cfg)
        assert (info.value.member, info.value.junction) == (1, 0)
        rho, v = calls[-1]
        assert info.value.states == tuple(zip(rho, v)) and len(rho) == 3

    def test_non_finite_state_names_member_step_and_t(self):
        nets = [ramp_network(1000.0), ramp_network(2000.0)]
        # an interior cell; an end cell fails the same check, before the t = 0 junction pass
        nets[1].roads["r2"].y[5] = math.nan
        with pytest.raises(SolverFailure, match=r"^non-finite state on road r2 at step 0, "
                                                r"t=0\.0 \(member 1\)$") as info:
            sim.run_batch(nets, sim.SimConfig())
        assert info.value.member == 1

    @pytest.mark.parametrize("column, value", [("y", math.nan), ("rho", math.inf)])
    def test_non_finite_end_cell_names_member_step_and_t(self, column, value):
        """The junction pass takes its end cells as plain floats: the t = 0 pass runs
        after the same non-finite check as each step."""
        nets = [ramp_network(1000.0), ramp_network(2000.0)]
        getattr(nets[1].roads["r2"], column)[-1] = value
        with pytest.raises(SolverFailure, match=r"^non-finite state on road r2 at step 0, "
                                                r"t=0\.0 \(member 1\)$") as info:
            sim.run_batch(nets, sim.SimConfig())
        assert info.value.member == 1

    def test_non_finite_final_state_names_road_step_and_t(self, monkeypatch):
        """The state after the last step is checked as every earlier one is: an infinite
        junction flux on the last step's pass leaves road r3 non-finite."""
        cfg = sim.SimConfig(t_end=0.002)
        res = sim.run(ramp_network(2000.0), cfg)
        fluxes, calls = jn.fluxes, []

        def infinite_on_the_last_pass(spec, rho, v):
            calls.append(1)
            (q1, q2), *rest = fl = fluxes(spec, rho, v)
            return ((math.inf, q2), *rest) if len(calls) == res.steps else fl
        monkeypatch.setattr(jn, "fluxes", infinite_on_the_last_pass)
        t = re.escape(repr(float(res.times[-1])))
        with pytest.raises(SolverFailure, match=rf"^non-finite state on road r3 at step "
                                                rf"{res.steps}, t={t} \(member 0\)$") as info:
            sim.run(ramp_network(2000.0), cfg)
        assert info.value.member == 0

    def test_capacity_drop_names_the_sweep_value(self, tmp_path, monkeypatch, capsys):
        """A root-find failure and an infeasible flux are both numerical failures: exit 3."""
        path = tmp_path / "merge.json"
        path.write_text(json.dumps(MERGE_DOC))
        road2 = MERGE_DOC["roads"][1]
        rho2 = fd.equilibrium_density(RoadParams(road2["rho_max"], road2["v_ref"],
                                                 road2["gamma"]), 2000.0)
        fluxes = jn.fluxes
        for failure in (SolverFailure, jn.InfeasibleFlux):
            def fail_on_point_2000(spec, rho, v):
                if rho[1] == rho2:  # road 2's end cell while it holds its initial state
                    raise failure("forced failure")
                return fluxes(spec, rho, v)
            monkeypatch.setattr(jn, "fluxes", fail_on_point_2000)
            code = cli.main(["capacity-drop", "--scenario", str(path),
                             "--sweep", "1000,2000,3000"])
            assert code == cli.EXIT_NUMERIC, failure
            assert capsys.readouterr().err == ("numerical failure: forced failure at junction 0 "
                                               "(r1, r2 -> r3) at step 0, t=0.0 (member 1), "
                                               "sweep value 2000.0\n")
