import tracemalloc

import numpy as np
import pytest

from arznet import fundamental as fd
from arznet import junction as jc
from arznet import oracle
from arznet.fundamental import RoadParams, TrafficState


def rand_params(rng):
    return RoadParams(rng.uniform(20, 300), rng.uniform(40, 160), rng.uniform(0.5, 4.0))


def rand_state(rng, p):
    return TrafficState(rng.uniform(1e-3, 0.98 * p.rho_max), rng.uniform(0.5, p.v_ref))


def rand_context(rng):
    p1, p2, p3 = rand_params(rng), rand_params(rng), rand_params(rng)
    return oracle.MergeContext(
        (p1, rand_state(rng, p1)), (p2, rand_state(rng, p2)), (p3, rand_state(rng, p3))
    )


class TestFeasibility:
    def test_origin_always_feasible(self):
        rng = np.random.default_rng(89)
        for _ in range(100):
            assert oracle.feasible(rand_context(rng), 0.0, 0.0)

    def test_demand_cap_enforced(self):
        rng = np.random.default_rng(97)
        ctx = rand_context(rng)
        assert not oracle.feasible(ctx, ctx.delta1 * 1.01, 0.0)
        assert not oracle.feasible(ctx, 0.0, ctx.delta2 * 1.01)

    def test_vectorized_matches_scalar(self):
        rng = np.random.default_rng(101)
        ctx = rand_context(rng)
        q1 = rng.uniform(0, ctx.delta1, size=50)
        q2 = rng.uniform(0, ctx.delta2, size=50)
        vec = oracle.feasible(ctx, q1, q2)
        for k in range(50):
            assert vec[k] == oracle.feasible(ctx, float(q1[k]), float(q2[k]))


class TestParetoSample:
    def test_resolution_floor(self):
        rng = np.random.default_rng(103)
        with pytest.raises(ValueError):
            oracle.sample_pareto(rand_context(rng), n=50)

    @pytest.mark.parametrize("n", [100, 333, 512])
    def test_grid_in_row_blocks_equals_one_call(self, n):
        """The blocked feasibility test gives the grid of one call on the whole meshgrid."""
        rng = np.random.default_rng(113)
        for _ in range(3):
            ctx = rand_context(rng)
            sample = oracle.sample_pareto(ctx, n=n)
            q1g, q2g = np.meshgrid(sample.q1_axis, sample.q2_axis, indexing="ij")
            np.testing.assert_array_equal(sample.feasible, oracle.feasible(ctx, q1g, q2g))

    def test_peak_memory_of_a_512_grid(self):
        """The axes broadcast against each other: no meshgrid of a row block is allocated."""
        ctx = rand_context(np.random.default_rng(113))
        oracle.sample_pareto(ctx, n=512)  # the context's cached demands, outside the trace
        tracemalloc.start()
        try:
            oracle.sample_pareto(ctx, n=512)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 5.0e6

    def test_pareto_subset_of_feasible(self):
        rng = np.random.default_rng(107)
        sample = oracle.sample_pareto(rand_context(rng), n=128)
        assert np.all(sample.feasible[sample.pareto])

    def test_no_dominated_pareto_points(self):
        rng = np.random.default_rng(109)
        for _ in range(5):
            sample = oracle.sample_pareto(rand_context(rng), n=128)
            feas = sample.feasible
            ii, jj = np.nonzero(sample.pareto)
            for i, j in zip(ii[:50], jj[:50]):
                assert not feas[i + 1:, j + 1:].any()

    def test_dominated_interior_point(self):
        rng = np.random.default_rng(113)
        sample = oracle.sample_pareto(rand_context(rng), n=128)
        # the origin is feasible and dominated whenever anything else is feasible
        if sample.feasible[1:, 1:].any():
            assert not sample.pareto[0, 0]

    def test_resolution_is_the_grid_step(self):
        rng = np.random.default_rng(139)
        for n in (100, 512):
            sample = oracle.sample_pareto(rand_context(rng), n=n)
            assert sample.resolution == (sample.q1_axis[1] - sample.q1_axis[0],
                                         sample.q2_axis[1] - sample.q2_axis[0])

    def test_solver_flux_lands_on_front(self):
        rng = np.random.default_rng(127)
        ctx = rand_context(rng)
        sol = jc.solve_merge(ctx.in1, ctx.in2, ctx.out, 0.5)
        sample = oracle.sample_pareto(ctx, n=256)
        pts = sample.pareto_points()
        step = max(sample.resolution)
        d = np.max(np.abs(pts - np.array(sol.q_in)), axis=1)
        assert d.min() <= 1.5 * step


class TestConvexityProbe:
    def test_counts_zero_on_real_sets(self):
        rng = np.random.default_rng(131)
        ctx = rand_context(rng)
        assert oracle.convexity_probe(ctx, trials=20, rng=rng) == 0

    def test_rejects_empty_trials(self):
        rng = np.random.default_rng(137)
        with pytest.raises(ValueError):
            oracle.convexity_probe(rand_context(rng), trials=0)


class TestSingleInflowOracle:
    def test_matches_min_formula(self):
        rng = np.random.default_rng(139)
        for _ in range(50):
            de = rng.uniform(0.0, 5000.0)
            sups = rng.uniform(0.0, 5000.0, size=3)
            a = rng.dirichlet((2.0, 2.0, 2.0))
            got = oracle.max_flux_single_inflow(de, sups, a, n=200_000)
            want = min(de, *(s / x for s, x in zip(sups, a)))
            assert got == pytest.approx(want, abs=de / 100_000)

    def test_brackets_the_solver(self):
        """On random 1-to-m junctions the solver's inflow lies within one grid step above the grid's.

        The demand and the supplies come from the public ``fd.demand`` and
        ``fd.supply`` at the modified densities, not from the solver's kernels.
        """
        rng = np.random.default_rng(151)
        n = 4096
        for _ in range(2000):
            m = int(rng.integers(1, 4))
            roads = [rand_params(rng) for _ in range(m + 1)]
            states = [TrafficState(rng.uniform(0.0, 1.2 * p.rho_max), rng.uniform(0.5, p.v_ref))
                      for p in roads]
            if m == 1:
                spec = jc.JunctionSpec(jc.JunctionKind.ONE_TO_ONE, (roads[0],), (roads[1],))
                alphas = (1.0,)
            else:
                alphas = tuple(float(a) for a in rng.dirichlet((2.0,) * m))
                spec = jc.JunctionSpec(jc.JunctionKind.DIVERGE, (roads[0],), tuple(roads[1:]),
                                       alphas=alphas)
            w = fd.attribute(roads[0], states[0])
            d = fd.demand(roads[0], states[0].rho, w)
            sups = [fd.supply(p, jc.modified_density(p, w, s.v), w)
                    for p, s in zip(roads[1:], states[1:])]
            ref = oracle.max_flux_single_inflow(d, sups, alphas, n)
            q = jc.junction_fluxes(spec, states).q_in[0]
            tol = jc.flux_tol(max(d, *sups))
            assert ref - tol <= q <= ref + d / (n - 1) + tol


class TestCsvDump:
    def test_roundtrip_columns(self, tmp_path):
        rng = np.random.default_rng(149)
        sample = oracle.sample_pareto(rand_context(rng), n=100)
        path = tmp_path / "feasible.csv"
        oracle.write_sample_csv(sample, path, extra_points=[("solver", 1.0, 2.0)])
        lines = path.read_text().splitlines()
        assert lines[0] == "q1,q2,feasible,pareto"
        assert lines[1].startswith("0.0,0.0,")
        assert any(row.startswith("solver,") for row in lines)
