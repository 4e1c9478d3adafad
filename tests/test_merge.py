import numpy as np
import pytest

from arznet import fundamental as fd
from arznet import junction as jc
from arznet import oracle
from arznet.fundamental import RoadParams, TrafficState
from shared import ROAD_IN, ramp_branches, rand_params, rand_state

# Steady merge fluxes for the reference on-ramp scenario: road 1 at density 30,
# road 3 at density 10, equal priority, road-2 inflow swept over its demand.
RAMP_TABLE = [
    (1000.0, 2500.0, 1000.0, 3500.0),
    (1400.0, 2500.0, 1400.0, 3900.0),
    (1500.0, 2413.1, 1500.0, 3913.1),
    (1750.0, 2155.0, 1750.0, 3905.0),
    (2000.0, 1945.3, 1945.3, 3890.6),
    (2500.0, 1924.6, 1924.6, 3849.3),
    (3000.0, 1903.9, 1903.9, 3807.7),
    (3500.0, 1881.9, 1881.9, 3763.8),
]


def rand_merge(rng):
    in1, in2 = rand_params(rng), rand_params(rng)
    out = rand_params(rng)
    return (
        (in1, rand_state(rng, in1)),
        (in2, rand_state(rng, in2)),
        (out, rand_state(rng, out)),
        rng.uniform(0.05, 0.95),
    )


class TestRampScenario:
    @pytest.mark.parametrize("q2_desired,q1,q2,q3", RAMP_TABLE)
    def test_table_row(self, q2_desired, q1, q2, q3):
        b1, b2, b3 = ramp_branches(q2_desired)
        sol = jc.solve_merge(b1, b2, b3, priority=0.5)
        assert sol.q_in[0] == pytest.approx(q1, rel=5e-3)
        assert sol.q_in[1] == pytest.approx(q2, rel=5e-3)
        assert sol.q_out[0] == pytest.approx(q3, rel=5e-3)

    def test_equal_split_when_supply_binds_hard(self):
        b1, b2, b3 = ramp_branches(3500.0)
        sol = jc.solve_merge(b1, b2, b3, priority=0.5)
        assert sol.ratio == pytest.approx(0.5, abs=1e-9)


class TestConservation:
    def test_outflow_is_exact_sum(self):
        rng = np.random.default_rng(61)
        for _ in range(500):
            b1, b2, b3, pr = rand_merge(rng)
            sol = jc.solve_merge(b1, b2, b3, pr)
            assert sol.q_out[0] == sol.q_in[0] + sol.q_in[1]


class TestMirrorSymmetry:
    def test_swap_incoming_and_priority(self):
        rng = np.random.default_rng(67)
        for _ in range(300):
            b1, b2, b3, pr = rand_merge(rng)
            a = jc.solve_merge(b1, b2, b3, pr)
            b = jc.solve_merge(b2, b1, b3, 1.0 - pr)
            assert a.q_in[0] == pytest.approx(b.q_in[1], rel=1e-9, abs=1e-9)
            assert a.q_in[1] == pytest.approx(b.q_in[0], rel=1e-9, abs=1e-9)


class TestFeasibility:
    def test_demand_and_supply_bounds(self):
        rng = np.random.default_rng(71)
        for _ in range(500):
            b1, b2, b3, pr = rand_merge(rng)
            sol = jc.solve_merge(b1, b2, b3, pr)
            ctx = oracle.MergeContext(b1, b2, b3)
            tol = jc.flux_tol(max(1.0, ctx.delta1, ctx.delta2))
            assert sol.q_in[0] <= ctx.delta1 + tol
            assert sol.q_in[1] <= ctx.delta2 + tol
            assert oracle.feasible(ctx, sol.q_in[0], sol.q_in[1])

    def test_something_binds(self):
        rng = np.random.default_rng(73)
        for _ in range(500):
            b1, b2, b3, pr = rand_merge(rng)
            sol = jc.solve_merge(b1, b2, b3, pr)
            ctx = oracle.MergeContext(b1, b2, b3)
            q1, q2 = sol.q_in
            su = oracle.supply_at(ctx, q1, q2)
            tol = jc.flux_tol(max(1.0, ctx.delta1, ctx.delta2, su))
            binds = (
                abs(q1 - ctx.delta1) <= tol
                or abs(q2 - ctx.delta2) <= tol
                or abs(q1 + q2 - su) <= tol
            )
            assert binds, (q1, q2, ctx.delta1, ctx.delta2, su)


class TestSupplyCurve:
    def test_matches_direct_composition(self):
        rng = np.random.default_rng(79)
        for _ in range(300):
            b1, b2, b3, _ = rand_merge(rng)
            geom = jc.merge_geometry(b1, b2, b3)
            total = max(geom.w1, geom.w2, 1.0)
            for p in rng.uniform(0, 1, size=5):
                w = geom.w_at(p)
                direct = float(
                    fd.supply(
                        b3[0], jc.modified_density(b3[0], w, b3[1].v), w
                    )
                )
                assert jc.sigma_tilde(geom, float(p)) == pytest.approx(
                    direct, rel=1e-10, abs=1e-10 * total
                )

    def test_rejects_out_of_range(self):
        rng = np.random.default_rng(83)
        b1, b2, b3, _ = rand_merge(rng)
        geom = jc.merge_geometry(b1, b2, b3)
        with pytest.raises(ValueError):
            jc.sigma_tilde(geom, 1.5)


class TestRatioTracking:
    def test_ratio_matches_priority_when_interior(self):
        # Pick a hard-supply-bound instance: both demands huge, outlet congested.
        p_in = RoadParams(200.0, 120.0, 1.5)
        p_out = RoadParams(120.0, 80.0, 2.0)
        s1 = TrafficState(150.0, 20.0)
        s2 = TrafficState(150.0, 20.0)
        s3 = TrafficState(100.0, 5.0)
        for pr in (0.3, 0.5, 0.7):
            sol = jc.solve_merge((p_in, s1), (p_in, s2), (p_out, s3), pr)
            # identical incoming attributes: the split must follow the priority
            assert sol.ratio == pytest.approx(pr, abs=1e-9)
            assert sol.case == "E1"


def _solve_both(roads, states, priority):
    """Merge fluxes through ``junction_fluxes`` and ``solve``; the traces must be admissible."""
    spec = jc.JunctionSpec(jc.JunctionKind.MERGE, tuple(roads[:2]), (roads[2],), priority=priority)
    fl = jc.junction_fluxes(spec, states)
    sol = jc.solve(spec, states)
    assert fl == jc.JunctionFluxes(**{k: getattr(sol, k) for k in vars(fl)})
    assert jc.check_admissibility(spec, states, sol).ok
    return sol


def _mirrored(roads, states, priority):
    return [roads[1], roads[0], roads[2]], [states[1], states[0], states[2]], 1.0 - priority


# A road at vacuum standing still (w = 0) has demand and capacity 0; the
# outgoing road is at vacuum with speed near 0.
H1A_VACUUM = (
    [RoadParams(20.0, 40.0, 1.0), RoadParams(65.0, 63.0, 1.0), RoadParams(43.0, 40.0, 1.0)],
    [TrafficState(0.0, 0.0), TrafficState(32.5, 63.0), TrafficState(0.0, 4e-8)],
    0.5,
)
# Demand 0 on road 1, a demand of 1e-6 within the flux tolerance on road 2,
# whose attribute (5e-6) gives the outgoing road a capacity of only 1.8e-11.
DEMANDS_TIED_NEAR_VACUUM = (
    [RoadParams(20.0, 50.0, 1.0), RoadParams(20.0, 48.0, 3.75), RoadParams(116.0, 40.0, 1.0)],
    [TrafficState(0.0, 50.0), TrafficState(0.390625, 0.0), TrafficState(0.0, 40.0)],
    0.75,
)


class TestNearVacuum:
    @pytest.mark.parametrize("mirror", [False, True])
    def test_h1a_gives_a_vacuum_road_no_flux(self, mirror):
        instance = _mirrored(*H1A_VACUUM) if mirror else H1A_VACUUM
        sol = _solve_both(*instance)
        vacuum = 1 if mirror else 0
        assert sol.case == ("H1a'" if mirror else "H1a")
        assert sol.q_in[vacuum] == 0.0
        assert sol.q_out[0] == sol.q_in[1 - vacuum] > 0.0

    @pytest.mark.parametrize("mirror", [False, True])
    def test_tied_demands_respect_the_outgoing_capacity(self, mirror):
        """With both demands binding within tol, the exact minimum decides E2 against E3."""
        instance = _mirrored(*DEMANDS_TIED_NEAR_VACUUM) if mirror else DEMANDS_TIED_NEAR_VACUUM
        roads = instance[0]
        sol = _solve_both(*instance)
        assert sol.case == ("E3" if mirror else "E3'")
        assert 0.0 < sol.q_out[0] <= fd.capacity(roads[2], sol.w_out[0])


# Road 1 carries the larger attribute, so the merge runs the mirrored
# construction with priority 1 - p; swapping the states gives the direct one.
TINY_PRIORITY_ROADS = [ROAD_IN] * 3
TINY_PRIORITY_STATES = [TrafficState(30.0, 60.0), TrafficState(30.0, 40.0), TrafficState(10.0, 80.0)]


class TestTinyPriority:
    @pytest.mark.parametrize("priority", [1e-17, 2.0**-54])
    def test_complement_rounding_to_one_is_rejected(self, priority):
        roads, states = TINY_PRIORITY_ROADS, TINY_PRIORITY_STATES
        assert 1.0 - priority == 1.0
        with pytest.raises(ValueError, match="2\\*\\*-54"):
            jc.JunctionSpec(jc.JunctionKind.MERGE, tuple(roads[:2]), (roads[2],), priority=priority)
        with pytest.raises(ValueError, match="2\\*\\*-54"):
            jc.solve_merge(*zip(roads, states), priority)

    @pytest.mark.parametrize("swap, case", [(False, "E2'"), (True, "E3")])
    def test_smallest_priorities_above_the_bound_solve(self, swap, case):
        states = list(TINY_PRIORITY_STATES)
        if swap:
            states[:2] = states[1::-1]
        for priority in (6e-17, np.nextafter(2.0**-54, 1.0)):
            sol = _solve_both(TINY_PRIORITY_ROADS, states, float(priority))
            assert sol.case == case
            assert sol.q_out[0] == pytest.approx(sum(sol.q_in), rel=1e-15)
