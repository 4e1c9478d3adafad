import math

import numpy as np
import pytest

from arznet import fundamental as fd
from arznet import junction as jc
from arznet import sim
from arznet.fundamental import RoadParams, TrafficState
from arznet.junction import JunctionKind, JunctionSpec
from arznet.rootfind import SolverFailure

ROAD_IN = RoadParams(rho_max=180.0, v_ref=100.0, gamma=1.2)
ROAD_OUT = RoadParams(rho_max=90.0, v_ref=100.0, gamma=1.7)


def ramp_network(q2_desired, cells=100):
    s1 = fd.equilibrium_state(ROAD_IN, 30.0)
    s2 = fd.equilibrium_state(ROAD_IN, fd.equilibrium_density(ROAD_IN, q2_desired))
    s3 = fd.equilibrium_state(ROAD_OUT, 10.0)
    roads = {
        "r1": sim.road_from_state("r1", ROAD_IN, 1.0, cells, s1),
        "r2": sim.road_from_state("r2", ROAD_IN, 1.0, cells, s2),
        "r3": sim.road_from_state("r3", ROAD_OUT, 1.0, cells, s3),
    }
    spec = JunctionSpec(JunctionKind.MERGE, (ROAD_IN, ROAD_IN), (ROAD_OUT,), priority=0.5)
    return sim.Network(roads, [sim.NetworkJunction(spec, ("r1", "r2"), ("r3",))])


def cells_of(batch):
    """Each road's cell quantities for one step, as ``sim.run_batch`` passes them to ``step``."""
    return {rid: sim._cells(rows) for rid, rows in batch.roads.items()}


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

    def test_cfl_violation_raised(self):
        s = fd.equilibrium_state(ROAD_IN, 40.0)
        batch = sim.batch_of([sim.Network({"r": sim.road_from_state("r", ROAD_IN, 2.0, 50, s)})])
        cells = cells_of(batch)
        with pytest.raises(sim.CFLViolation):
            sim.step(batch, 10.0 * sim.stable_dt(batch, 1.0, cells), cells)


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
        s1 = fd.equilibrium_state(ROAD_IN, 30.0)
        s2 = fd.equilibrium_state(ROAD_IN, fd.equilibrium_density(ROAD_IN, 2000.0))
        s3 = fd.equilibrium_state(ROAD_OUT, 10.0)
        sol = jc.solve_merge((ROAD_IN, s1), (ROAD_IN, s2), (ROAD_OUT, s3), 0.5)
        assert res.steady_fluxes["r1", -1] == pytest.approx(sol.q_in[0], rel=1e-3)
        assert res.steady_fluxes["r2", -1] == pytest.approx(sol.q_in[1], rel=1e-3)
        assert res.steady_fluxes["r3", 0] == pytest.approx(sol.q_out[0], rel=1e-3)

    def test_outgoing_flux_is_exact_sum(self):
        net = ramp_network(2000.0)
        sim.run(net, sim.SimConfig(t_end=0.02))
        batch = sim.batch_of([net])
        cells = cells_of(batch)
        (jf,), _ = sim.step(batch, sim.stable_dt(batch, 0.5, cells), cells)
        assert jf["r3", 0][0] == jf["r1", -1][0] + jf["r2", -1][0]

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
