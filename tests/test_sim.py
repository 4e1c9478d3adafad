import copy
import csv
import math
import tracemalloc

import numpy as np
import pytest

from arznet import fundamental as fd
from arznet import junction as jc
from arznet import sim
from arznet.fundamental import RoadParams, TrafficState
from arznet.junction import JunctionKind, JunctionSpec
from arznet.rootfind import SolverFailure
from shared import ROAD_IN, ramp_branches, ramp_network


class TestSingleRoad:
    def test_uniform_state_is_stationary(self):
        s = fd.equilibrium_state(ROAD_IN, 40.0)
        net = sim.Network({"r": sim.road_from_state("r", ROAD_IN, 2.0, 50, s)})
        rho0 = net.roads["r"].rho.copy()
        res = sim.run(net, sim.SimConfig(t_end=0.05))
        assert np.allclose(net.roads["r"].rho, rho0, rtol=1e-12, atol=1e-12)
        assert res.steps > 0

    def test_ledger_closes_on_uniform_flow(self):
        s = fd.equilibrium_state(ROAD_IN, 40.0)
        net = sim.Network({"r": sim.road_from_state("r", ROAD_IN, 2.0, 50, s)})
        res = sim.run(net, sim.SimConfig(t_end=0.05))
        r_mass, r_mom = res.ledger.residuals()
        assert abs(r_mass) < 1e-12
        assert abs(r_mom) < 1e-12

    def test_shock_mass_conserved(self):
        # dense slug in the middle of a free road
        road = sim.road_from_state("r", ROAD_IN, 2.0, 80, fd.equilibrium_state(ROAD_IN, 20.0))
        rho_hi, y_hi = fd.to_conservative(ROAD_IN, fd.equilibrium_state(ROAD_IN, 90.0))
        road.rho[30:50] = rho_hi
        road.y[30:50] = y_hi
        net = sim.Network({"r": road})
        res = sim.run(net, sim.SimConfig(t_end=0.02))
        r_mass, r_mom = res.ledger.residuals()
        assert abs(r_mass) < 1e-10
        assert abs(r_mom) < 1e-9

    def test_step_takes_the_cfl_step_or_t_left(self):
        """Member 0 takes its CFL step, member 1 exactly the time it has left."""
        # a speed above v_ref is member 0's max wave speed: lambda_1 = v - gamma p(rho) < v
        states = TrafficState(30.0, 150.0), fd.equilibrium_state(ROAD_IN, 40.0)
        batch = sim.batch_of([sim.Network({"r": sim.road_from_state("r", ROAD_IN, 2.0, 50, s)})
                              for s in states])
        dt, _, _ = sim.step(batch, sim.SimConfig(cfl=0.5), np.array([math.inf, 1e-9]))
        assert dt[0] == pytest.approx(0.5 * (2.0 / 50) / 150.0, rel=1e-12)
        assert dt[1] == 1e-9

    def test_zero_step_leaves_the_cells_unchanged(self):
        net = ramp_network(2000.0)
        sim.run(net, sim.SimConfig(t_end=0.02))
        before = {rid: (r.rho.tobytes(), r.y.tobytes()) for rid, r in net.roads.items()}
        dt, _, edge = sim.step(sim.batch_of([net]), sim.SimConfig(), np.zeros(1))
        assert dt[0] == 0.0 and all(np.any(fm != 0.0) for fm, _ in edge.values())
        assert {rid: (r.rho.tobytes(), r.y.tobytes()) for rid, r in net.roads.items()} == before

    def test_a_later_step_allocates_no_array_as_long_as_the_road(self):
        """Each group's work arrays are made once. With fresh temporaries in every step,
        the second step of this road peaked at 2.2 MB."""
        cells = 25_000
        road = sim.road_from_state("r", ROAD_IN, 2.5, cells, fd.equilibrium_state(ROAD_IN, 40.0))
        batch = sim.batch_of([sim.Network({"r": road})])
        sim.step(batch, sim.SimConfig(), np.full(1, math.inf))
        tracemalloc.start()
        try:
            sim.step(batch, sim.SimConfig(), np.full(1, math.inf))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * (cells + 1)

    def test_edge_fluxes_are_views_that_the_next_step_writes_over(self):
        """``step`` returns views of its group's work arrays, not copies."""
        batch = sim.batch_of([ramp_network(2000.0)])
        _, _, edge = sim.step(batch, sim.SimConfig(), np.full(1, math.inf))
        held = edge["r3"][0]
        first = held.copy()
        _, _, edge = sim.step(batch, sim.SimConfig(), np.full(1, math.inf))
        assert np.shares_memory(held, edge["r3"][0])
        assert held.tobytes() == edge["r3"][0].tobytes() != first.tobytes()

    def test_no_junction_gives_no_junction_fluxes(self):
        s = fd.equilibrium_state(ROAD_IN, 40.0)
        net = sim.Network({"r": sim.road_from_state("r", ROAD_IN, 2.0, 50, s)})
        batch = sim.batch_of([copy.deepcopy(net)])
        _, junction_edges, _ = sim.step(batch, sim.SimConfig(), np.full(1, math.inf))
        assert junction_edges.shape == (1, 0, 3)
        res = sim.run(net, sim.SimConfig(t_end=0.01, output_stride=1))
        assert res.flux_series == {} and len(res.times) == res.steps + 1


class TestContactArtifact:
    """Godunov on ARZ smears a contact discontinuity and the speed overshoots there.

    Across a contact rho jumps while v stays the same, so the exact solution
    keeps v = 50 km/h in every cell. The scheme averages rho and y = rho w
    in the cells the contact crosses, and the mixed states have a larger
    speed. The overshoot does not shrink under grid refinement: 9.91 km/h
    with 100 cells and 9.61 with 400 at t = 0.005 h.
    """

    @pytest.mark.parametrize("cells", [100, 400])
    def test_speed_overshoot_is_bounded(self, cells):
        road = sim.road_from_state("r", ROAD_IN, 1.0, cells, TrafficState(20.0, 50.0))
        rho, y = fd.to_conservative(ROAD_IN, TrafficState(80.0, 50.0))
        road.rho[cells // 2:] = rho
        road.y[cells // 2:] = y
        res = sim.run(sim.Network({"r": road}), sim.SimConfig(t_end=0.005, steady_tol=0.0))
        assert not res.steady and res.times[-1] == pytest.approx(0.005)
        assert np.max(np.abs(res.final_v["r"] - 50.0)) <= 11.0


class TestNonFinite:
    @pytest.mark.parametrize("field", ["t_end", "steady_tol"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_config_rejects_non_finite(self, field, bad):
        with pytest.raises(ValueError, match=field):
            sim.SimConfig(**{"t_end": 0.05, field: bad})

    @pytest.mark.parametrize("stride", [1.5, math.inf, math.nan])
    def test_config_rejects_a_stride_that_is_not_whole(self, stride):
        """``run_batch`` records at ``steps % output_stride == 0``: 1.5 would record at
        steps 3, 6, ... and inf at none."""
        with pytest.raises(ValueError, match="output_stride"):
            sim.SimConfig(output_stride=stride)

    @pytest.mark.parametrize("cfl", [0.0, -0.5, 1.5, math.nan, math.inf])
    def test_config_rejects_cfl_outside_0_1(self, cfl):
        with pytest.raises(ValueError, match="cfl"):
            sim.SimConfig(cfl=cfl)

    @pytest.mark.parametrize("field", ["rho", "y"])
    def test_nan_cell_rejected_at_construction(self, field):
        arrays = {"rho": np.full(20, 40.0), "y": np.full(20, 3000.0)}
        arrays[field][5] = math.nan
        with pytest.raises(ValueError, match="rho and y must be non-negative"):
            sim.DiscretizedRoad("r", ROAD_IN, 1.0, 20, arrays["rho"], arrays["y"])

    @pytest.mark.parametrize("field", ["rho", "y"])
    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_non_finite_cell_rejected_at_construction(self, field, bad):
        arrays = {"rho": np.full(20, 40.0), "y": np.full(20, 3000.0)}
        arrays[field][5] = bad
        with pytest.raises(ValueError, match="rho and y must be non-negative and finite"):
            sim.DiscretizedRoad("r", ROAD_IN, 1.0, 20, arrays["rho"], arrays["y"])

    def test_nan_state_fails_the_run(self):
        s = fd.equilibrium_state(ROAD_IN, 40.0)
        net = sim.Network({"r": sim.road_from_state("r", ROAD_IN, 1.0, 20, s)})
        sim.run(net, sim.SimConfig(t_end=0.002))
        net.roads["r"].y[5] = math.nan
        with pytest.raises(SolverFailure, match=r"road r at step 0, t=0\.0"):
            sim.run(net, sim.SimConfig(t_end=0.05))


def random_state(rng, p):
    """Vacuum (speed v_ref, as ``from_conservative`` reports it), near vacuum, or up to near jam."""
    kind = rng.integers(3)
    if kind == 0:
        return TrafficState(0.0, p.v_ref)
    rho = rng.uniform(0.0, 0.5 * fd.VACUUM_RHO) if kind == 1 else rng.uniform(1e-3, 0.98 * p.rho_max)
    return TrafficState(rho, rng.uniform(0.5, p.v_ref))


class TestInterfaceFlux:
    def test_matches_one_to_one_solver(self):
        """The flux between two states, on one road or two, is the 1-to-1 junction's, bit for bit."""
        rng = np.random.default_rng(151)
        for k in range(400):
            pl = RoadParams(rng.uniform(20, 300), rng.uniform(40, 160), rng.uniform(0.5, 4.0))
            pr = pl if k % 2 else RoadParams(rng.uniform(20, 300), rng.uniform(40, 160),
                                            rng.uniform(0.5, 4.0))
            sl, sr = random_state(rng, pl), random_state(rng, pr)
            fl = jc.junction_fluxes(JunctionSpec(JunctionKind.ONE_TO_ONE, (pl,), (pr,)), [sl, sr])
            q, qw = sim.interface_flux((pl, sl), (pr, sr))
            assert (q, qw) == (fl.q_in[0], fl.q_in[0] * fl.w_in[0])
            if sl.rho == 0.0:
                assert q == 0.0


class TestMergeNetwork:
    def test_steady_fluxes_match_direct_solver(self):
        net = ramp_network(2000.0)
        res = sim.run(net, sim.SimConfig(t_end=0.5))
        assert res.steady
        sol = jc.solve_merge(*ramp_branches(2000.0), 0.5)
        assert res.steady_fluxes["r1", -1] == pytest.approx(sol.q_in[0], rel=1e-3)
        assert res.steady_fluxes["r2", -1] == pytest.approx(sol.q_in[1], rel=1e-3)
        assert res.steady_fluxes["r3", 0] == pytest.approx(sol.q_out[0], rel=1e-3)

    def test_outgoing_flux_is_exact_sum(self):
        net = ramp_network(2000.0)
        sim.run(net, sim.SimConfig(t_end=0.02))
        batch = sim.batch_of([net])
        _, (jf,), _ = sim.step(batch, sim.SimConfig(), np.full(1, math.inf))
        q = dict(zip(batch.net.junction_ends, jf[:, 0]))
        assert q["r3", 0] == q["r1", -1] + q["r2", -1]

    def test_first_record_is_the_first_steps_junction_fluxes(self):
        """The t = 0 record holds the fluxes of the initial data: those of step 1."""
        net = ramp_network(2000.0)
        _, (jf,), _ = sim.step(sim.batch_of([copy.deepcopy(net)]), sim.SimConfig(),
                               np.full(1, math.inf))
        res = sim.run(net, sim.SimConfig(t_end=0.002))
        assert res.times[0] == 0.0
        for k, end in enumerate([("r1", -1), ("r2", -1), ("r3", 0)]):
            assert res.flux_series[end][0].tolist() == [jf[k, 0], jf[k, 2]], end

    def test_time_loop_builds_no_traffic_state(self, monkeypatch):
        """The junction pass takes its end cells as plain floats: states are validated
        at the API edge, not per member, end and step."""
        nets = [ramp_network(1000.0), ramp_network(2000.0)]
        built, post_init = [], TrafficState.__post_init__
        monkeypatch.setattr(TrafficState, "__post_init__", lambda s: built.append(s) or post_init(s))
        results = sim.run_batch(nets, sim.SimConfig(t_end=0.002, steady_tol=0.0))
        assert min(r.steps for r in results) > 0 and len(built) == 0

    def test_network_mass_ledger(self):
        net = ramp_network(2500.0)
        res = sim.run(net, sim.SimConfig(t_end=0.1))
        r_mass, r_mom = res.ledger.residuals()
        assert abs(r_mass) < 1e-10
        assert abs(r_mom) < 1e-9

    def test_flux_series_shapes(self):
        net = ramp_network(1500.0)
        res = sim.run(net, sim.SimConfig(t_end=0.02))
        assert list(res.flux_series) == [("r1", -1), ("r2", -1), ("r3", 0)]
        for arr in res.flux_series.values():
            assert arr.shape == (len(res.times), 2)


class TestNetworkValidation:
    @pytest.mark.parametrize("length, cells, n, message", [
        (0.0, 10, 10, "positive length and at least one cell"),
        (1.0, 0, 0, "positive length and at least one cell"),
        (1.0, 10, 9, "one entry per cell"),
        (math.nan, 10, 10, "positive length and at least one cell"),
        (math.inf, 10, 10, "positive length and at least one cell"),
    ], ids=["length", "cells", "shape", "length_nan", "length_inf"])
    def test_road_shape_rejected(self, length, cells, n, message):
        with pytest.raises(ValueError, match=message):
            sim.DiscretizedRoad("r", ROAD_IN, length, cells, np.full(n, 40.0), np.full(n, 3000.0))

    def test_unknown_road_rejected(self):
        s = fd.equilibrium_state(ROAD_IN, 30.0)
        roads = {"a": sim.road_from_state("a", ROAD_IN, 1.0, 10, s)}
        spec = JunctionSpec(JunctionKind.ONE_TO_ONE, (ROAD_IN,), (ROAD_IN,))
        with pytest.raises(ValueError):
            sim.Network(roads, [sim.NetworkJunction(spec, ("a",), ("missing",))])

    def test_double_attachment_rejected(self):
        s = fd.equilibrium_state(ROAD_IN, 30.0)
        roads = {
            "a": sim.road_from_state("a", ROAD_IN, 1.0, 10, s),
            "b": sim.road_from_state("b", ROAD_IN, 1.0, 10, s),
        }
        spec = JunctionSpec(JunctionKind.ONE_TO_ONE, (ROAD_IN,), (ROAD_IN,))
        with pytest.raises(ValueError):
            sim.Network(
                roads,
                [
                    sim.NetworkJunction(spec, ("a",), ("b",)),
                    sim.NetworkJunction(spec, ("a",), ("b",)),
                ],
            )


    @pytest.mark.parametrize("spec_params, in_ids", [
        (RoadParams(90.0, 60.0, 2.0), ("a",)),
        (ROAD_IN, ("a", "c")),
    ], ids=["parameters", "road-count"])
    def test_junction_that_does_not_match_its_roads_rejected(self, spec_params, in_ids):
        s = fd.equilibrium_state(ROAD_IN, 30.0)
        roads = {rid: sim.road_from_state(rid, ROAD_IN, 1.0, 10, s) for rid in "abc"}
        spec = JunctionSpec(JunctionKind.ONE_TO_ONE, (spec_params,), (spec_params,))
        with pytest.raises(ValueError, match="junction spec does not match its roads"):
            sim.Network(roads, [sim.NetworkJunction(spec, in_ids, ("b",))])


class TestCsvOutput:
    def test_flux_and_profile_files(self, tmp_path):
        net = ramp_network(1500.0, cells=20)
        res = sim.run(net, sim.SimConfig(t_end=0.01))
        fpath = tmp_path / "flux.csv"
        ppath = tmp_path / "profile.csv"
        sim.write_flux_csv(res, fpath)
        sim.write_profile_csv(res, ppath)
        assert fpath.read_text().splitlines()[0] == "t,branch_id,q,w"
        lines = ppath.read_text().splitlines()
        assert lines[0] == "branch_id,cell,rho,v"
        assert len(lines) == 1 + 3 * 20

    def test_profile_file_is_csv_writers(self, tmp_path):
        """The profile writer gives the bytes of ``csv.writer``: quoted road ids, repr floats,
        \\r\\n line ends, across a block boundary (road "a" has more than 4096 cells), and
        on runs of equal cells: a run across the boundary, equal rho under a changing v,
        -0.0 next to 0.0, nan and inf, a road of one cell and a road of none."""
        values = [0.0, 5e-324, 1e-300, 1e-5, 0.1, 1e16]
        ids = ["a", "a,b", 'q"x', "", " sp ", "é", "x\ny", "r\r"]
        final_rho = {rid: np.resize(values, 4101 if rid == "a" else 7 + k)
                     for k, rid in enumerate(ids)}
        final_v = {rid: rho[::-1].copy() for rid, rho in final_rho.items()}
        nan, inf = math.nan, math.inf
        final_rho["runs"] = np.repeat([1e-5, 0.1, -0.0, 0.0, nan, inf, 0.0],
                                      [3000, 2000, 2, 3, 4, 5, 1])
        final_v["runs"] = np.repeat([1.0, 2.0, 3.0, 0.0, -0.0, inf, nan, -0.0],
                                    [3000, 1500, 500, 2, 3, 4, 5, 1])
        final_rho["one"], final_v["one"] = np.array([0.1]), np.array([-0.0])
        final_rho["none"], final_v["none"] = np.zeros(0), np.zeros(0)
        ids += ["runs", "one", "none"]
        res = sim.SimResult(np.zeros(1), {}, final_rho, final_v, sim.MassLedger(), 0, False)
        path, ref = tmp_path / "profiles.csv", tmp_path / "reference.csv"
        sim.write_profile_csv(res, path)
        with open(ref, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["branch_id", "cell", "rho", "v"])
            for rid in ids:
                writer.writerows([rid, i, repr(r), repr(v)] for i, (r, v) in
                                 enumerate(zip(final_rho[rid].tolist(), final_v[rid].tolist())))
        assert path.read_bytes() == ref.read_bytes()
