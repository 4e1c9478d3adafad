import math
import tracemalloc
import warnings

import numpy as np
import pytest

from arznet import fundamental as fd
from arznet.fundamental import RoadParams, TrafficState
from shared import ROAD_IN, rand_params

TOY = RoadParams(rho_max=1.0, v_ref=2.0, gamma=2.0)


class TestPressure:
    def test_zero(self):
        assert fd.pressure(TOY, 0.0) == 0.0

    def test_closed_form(self):
        assert fd.pressure(TOY, 1.0) == pytest.approx((2.0 / 2.0) * 1.0**2)
        assert fd.pressure(ROAD_IN, 30.0) == pytest.approx((100.0 / 1.2) * (30.0 / 180.0) ** 1.2)
        assert fd.pressure(ROAD_IN, 30.0) == pytest.approx(9.71, abs=5e-3)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            fd.pressure(TOY, -1.0)

    def test_strictly_increasing(self):
        rho = np.linspace(0, 2 * TOY.rho_max, 200)
        p = np.asarray(fd.pressure(TOY, rho))
        assert np.all(np.diff(p) > 0)


class TestPressureInv:
    def test_origin(self):
        assert fd.pressure_inv(TOY, 0.0) == 0.0

    def test_inverse_of_example(self):
        assert fd.pressure_inv(TOY, 1.0) == pytest.approx(1.0)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            fd.pressure_inv(TOY, -0.5)

    def test_roundtrip_random(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            p = rand_params(rng)
            rho = rng.uniform(0, 2 * p.rho_max)
            back = fd.pressure_inv(p, fd.pressure(p, rho))
            assert back == pytest.approx(rho, rel=1e-12)


class TestSonicPoint:
    def test_zero_attribute(self):
        assert fd.sonic_point(TOY, 0.0) == 0.0

    def test_closed_form(self):
        # sigma = rho_max * (c*gamma / (v_ref*(1+gamma)))^(1/gamma) = sqrt(3*2/(2*3)) = 1
        assert fd.sonic_point(TOY, 3.0) == pytest.approx(1.0)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            fd.sonic_point(TOY, -1.0)

    def test_maximizes_flux(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            p = rand_params(rng)
            c = rng.uniform(0.1, 2 * p.v_ref)
            sigma = float(fd.sonic_point(p, c))
            eps = 1e-4 * sigma

            def flux(rho):
                return (c - float(fd.pressure(p, rho))) * rho

            assert flux(sigma) >= flux(sigma - eps)
            assert flux(sigma) >= flux(sigma + eps)


class TestDemandSupply:
    def test_vacuum_demand(self):
        assert fd.demand(TOY, 0.0, 3.0) == 0.0

    def test_demand_capacity_branch(self):
        # rho=1 >= sigma(3)=1, capacity = (3 - p(1)) * 1 = 2
        assert fd.demand(TOY, 1.0, 3.0) == pytest.approx(2.0)

    def test_demand_free_flow_equals_equilibrium_flux(self):
        s = fd.equilibrium_state(ROAD_IN, 30.0)
        w = fd.attribute(ROAD_IN, s)
        assert fd.demand(ROAD_IN, 30.0, w) == pytest.approx(2500.0, rel=1e-12)

    def test_supply_empty_road_is_capacity(self):
        assert fd.supply(TOY, 0.0, 3.0) == pytest.approx(float(fd.capacity(TOY, 3.0)))

    def test_supply_congested_branch(self):
        # p(1.5) = 2.25, supply = (3 - 2.25) * 1.5
        assert fd.supply(TOY, 1.5, 3.0) == pytest.approx(1.125)

    def test_zero_attribute_supply(self):
        assert fd.supply(TOY, 0.7, 0.0) == 0.0

    def test_monotonicity(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            p = rand_params(rng)
            c = rng.uniform(0.5, 2 * p.v_ref)
            rho = np.linspace(0, float(fd.pressure_inv(p, c)), 400)
            de = np.asarray(fd.demand(p, rho, c))
            su = np.asarray(fd.supply(p, rho, c))
            assert np.all(np.diff(de) >= -1e-9)
            assert np.all(np.diff(su) <= 1e-9)

    def test_meet_at_sonic(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            p = rand_params(rng)
            c = rng.uniform(0.5, 2 * p.v_ref)
            sigma = float(fd.sonic_point(p, c))
            cap = float(fd.capacity(p, c))
            assert fd.demand(p, sigma, c) == pytest.approx(cap, rel=1e-12)
            assert fd.supply(p, sigma, c) == pytest.approx(cap, rel=1e-12)

    def test_array_demand_peak_memory_at_most_supply(self):
        """The array demand frees p(rho) and the capacity early: its peak is no higher than the supply's."""
        rng = np.random.default_rng(17)
        rho = rng.uniform(0.0, ROAD_IN.rho_max, 100_000)
        c = rng.uniform(1.0, 2 * ROAD_IN.v_ref, 100_000)
        peak = {}
        for func in (fd.demand, fd.supply):
            func(ROAD_IN, rho, c)  # first calls allocate once-only state
            tracemalloc.start()
            try:
                func(ROAD_IN, rho, c)
                peak[func] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak[fd.demand] <= peak[fd.supply]

    def test_flux_concave_along_attribute_curve(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            p = rand_params(rng)
            c = rng.uniform(0.5, 2 * p.v_ref)
            rho = np.linspace(1e-3, float(fd.pressure_inv(p, c)) * 0.999, 300)
            q = (c - np.asarray(fd.pressure(p, rho))) * rho
            assert np.all(np.diff(q, 2) < 1e-9)


class TestEigenvalues:
    """lambda_1 = w - (1 + gamma) p(rho) at w = v + p(rho), and lambda_2 = v."""

    def test_vacuum_collapse(self):
        s = TrafficState(0.0, 1.3)
        assert fd.lambda1(TOY, s.rho, fd.attribute(TOY, s)) == s.v == 1.3

    def test_closed_form(self):
        # lambda_1 = v - gamma p(rho) = 1 - 2 at (rho=1, v=1)
        s = TrafficState(1.0, 1.0)
        assert fd.lambda1(TOY, s.rho, fd.attribute(TOY, s)) == pytest.approx(-1.0)

    def test_strict_hyperbolicity(self):
        rng = np.random.default_rng(17)
        for _ in range(1000):
            p = rand_params(rng)
            s = TrafficState(rng.uniform(1e-6, p.rho_max), rng.uniform(0, p.v_ref))
            assert fd.lambda1(p, s.rho, fd.attribute(p, s)) < s.v


class TestStateConversions:
    def test_params_validation(self):
        with pytest.raises(ValueError):
            RoadParams(0.0, 100.0, 1.0)
        with pytest.raises(ValueError):
            TrafficState(-1.0, 5.0)
        with pytest.raises(ValueError):
            TrafficState(5.0, -1e-9)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_rejected(self, bad):
        for args in [(bad, 100.0, 1.0), (180.0, bad, 1.0), (180.0, 100.0, bad)]:
            with pytest.raises(ValueError):
                RoadParams(*args)
        for args in [(bad, 10.0), (10.0, bad)]:
            with pytest.raises(ValueError):
                TrafficState(*args)

    def test_roundtrip(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            p = rand_params(rng)
            s = TrafficState(rng.uniform(1e-6, p.rho_max), rng.uniform(0, p.v_ref))
            rho, y = fd.to_conservative(p, s)
            back = fd.from_conservative(p, rho, y)
            assert back.rho == pytest.approx(s.rho, rel=1e-12)
            assert back.v == pytest.approx(s.v, rel=1e-9, abs=1e-9)

    def test_vacuum_speed_convention(self):
        s = fd.from_conservative(TOY, 1e-12, 0.0)
        assert s.v == TOY.v_ref

    def test_attribute_at_least_speed(self):
        rng = np.random.default_rng(29)
        for _ in range(100):
            p = rand_params(rng)
            s = TrafficState(rng.uniform(0, p.rho_max), rng.uniform(0, p.v_ref))
            assert fd.attribute(p, s) >= s.v


class TestEquilibrium:
    def test_density_inverts_flux(self):
        rho = fd.equilibrium_density(ROAD_IN, 2500.0)
        assert rho == pytest.approx(30.0, rel=1e-12)
        s = fd.equilibrium_state(ROAD_IN, rho)
        assert s.rho * s.v == pytest.approx(2500.0, rel=1e-12)

    def test_over_capacity_rejected(self):
        with pytest.raises(ValueError):
            fd.equilibrium_density(ROAD_IN, 1e6)

    @pytest.mark.parametrize("q", [math.nan, math.inf, -math.inf])
    def test_non_finite_flux_rejected(self, q):
        with pytest.raises(ValueError):
            fd.equilibrium_density(ROAD_IN, q)

    def test_capacity_is_half_the_jam_density(self):
        # rho_max^2 - 4 rho_max q / v_ref rounds to -1.1e-13 on this road at q = v_ref rho_max / 4
        p = RoadParams(rho_max=31.473, v_ref=41.983, gamma=1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rho = fd.equilibrium_density(p, p.v_ref * p.rho_max / 4.0)
        assert type(rho) is float and rho == 0.5 * p.rho_max

    def test_capacity_on_random_roads(self):
        rng = np.random.default_rng(4)
        for _ in range(2000):
            p = rand_params(rng)
            rho = fd.equilibrium_density(p, p.v_ref * p.rho_max / 4.0)
            assert rho == pytest.approx(0.5 * p.rho_max, rel=1e-6)
