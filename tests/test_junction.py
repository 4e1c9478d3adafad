import dataclasses
import math

import numpy as np
import pytest

from arznet import fundamental as fd
from arznet import junction as jc
from arznet.fundamental import RoadParams, TrafficState
from arznet.junction import JunctionKind, JunctionSpec
from shared import ROAD_IN, ROAD_OUT, rand_params, rand_state


def one_to_one(p1, s1, p2, s2):
    return jc.solve(JunctionSpec(JunctionKind.ONE_TO_ONE, (p1,), (p2,)), [s1, s2])


def diverge(p_in, s_in, outs, s_out, alphas):
    return jc.solve(JunctionSpec(JunctionKind.DIVERGE, (p_in,), tuple(outs), alphas=alphas),
                    [s_in, *s_out])


class TestModifiedDensity:
    def test_faster_receiver_gives_vacuum(self):
        p = RoadParams(1.0, 2.0, 2.0)
        assert jc.modified_density(p, w_in=1.0, v_out=1.5) == 0.0

    def test_closed_form(self):
        # p(rho~) = w_in - v_out: rho~ = rho_max * sqrt((w-v) gamma / v_ref)
        p = RoadParams(1.0, 2.0, 2.0)
        assert jc.modified_density(p, 3.0, 2.0) == pytest.approx(1.0)

    def test_pressure_consistency(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            p = rand_params(rng)
            w = rng.uniform(0.1, 2 * p.v_ref)
            v = rng.uniform(0.0, w)
            rho = jc.modified_density(p, w, v)
            assert fd.pressure(p, rho) == pytest.approx(w - v, rel=1e-10, abs=1e-12)


class TestOneToOne:
    def test_flux_is_min_of_demand_and_supply(self):
        rng = np.random.default_rng(37)
        for _ in range(300):
            p1, p2 = rand_params(rng), rand_params(rng)
            s1, s2 = rand_state(rng, p1), rand_state(rng, p2)
            sol = one_to_one(p1, s1, p2, s2)
            w1 = fd.attribute(p1, s1)
            de = float(fd.demand(p1, s1.rho, w1))
            rho_t = jc.modified_density(p2, w1, s2.v)
            su = float(fd.supply(p2, rho_t, w1))
            assert sol.q_in[0] == pytest.approx(min(de, su), rel=1e-12, abs=1e-12)
            assert sol.q_out[0] == sol.q_in[0]
            assert sol.w_out[0] == pytest.approx(w1)

    def test_attribute_transported(self):
        p = ROAD_IN
        s = fd.equilibrium_state(p, 30.0)
        sol = one_to_one(p, s, p, TrafficState(10.0, fd.equilibrium_speed(p, 10.0)))
        assert sol.w_out[0] == pytest.approx(fd.attribute(p, s), rel=1e-12)

    def test_boundary_states_reproduce_flux(self):
        rng = np.random.default_rng(41)
        for _ in range(300):
            p1, p2 = rand_params(rng), rand_params(rng)
            s1, s2 = rand_state(rng, p1), rand_state(rng, p2)
            sol = one_to_one(p1, s1, p2, s2)
            b_in, b_out = sol.boundary_in[0], sol.boundary_out[0]
            q = sol.q_in[0]
            assert b_in.rho * b_in.v == pytest.approx(q, rel=1e-7, abs=1e-7)
            assert b_out.rho * b_out.v == pytest.approx(q, rel=1e-7, abs=1e-7)
            assert fd.attribute(p1, b_in) == pytest.approx(sol.w_in[0], rel=1e-7)


class TestDiverge:
    def test_split_ratios_exact(self):
        rng = np.random.default_rng(43)
        for _ in range(200):
            p_in = rand_params(rng)
            outs = [rand_params(rng) for _ in range(3)]
            a = rng.dirichlet((2.0, 2.0, 2.0))
            a = tuple(float(x) for x in a)
            s_in = rand_state(rng, p_in)
            s_out = [rand_state(rng, p) for p in outs]
            sol = diverge(p_in, s_in, outs, s_out, a)
            q1 = sol.q_in[0]
            for j in range(3):
                assert sol.q_out[j] == pytest.approx(a[j] * q1, rel=1e-12, abs=1e-12)
            assert math.fsum(sol.q_out) == q1

    def test_min_formula(self):
        rng = np.random.default_rng(47)
        for _ in range(200):
            p_in = rand_params(rng)
            outs = [rand_params(rng) for _ in range(2)]
            a = (0.3, 0.7)
            s_in = rand_state(rng, p_in)
            s_out = [rand_state(rng, p) for p in outs]
            sol = diverge(p_in, s_in, outs, s_out, a)
            w1 = fd.attribute(p_in, s_in)
            de = float(fd.demand(p_in, s_in.rho, w1))
            bounds = [de]
            for j, (p, s) in enumerate(zip(outs, s_out)):
                rho_t = jc.modified_density(p, w1, s.v)
                bounds.append(float(fd.supply(p, rho_t, w1)) / a[j])
            assert sol.q_in[0] == pytest.approx(min(bounds), rel=1e-9)

    def test_zero_ratio_rejected(self):
        p = RoadParams(1.0, 2.0, 2.0)
        with pytest.raises(ValueError, match="assignment rates"):
            JunctionSpec(JunctionKind.DIVERGE, (p,), (p, p), alphas=(1.0, 0.0))

    def test_single_outgoing_collapses_to_one_to_one(self):
        rng = np.random.default_rng(53)
        for _ in range(100):
            p1, p2 = rand_params(rng), rand_params(rng)
            s1, s2 = rand_state(rng, p1), rand_state(rng, p2)
            spec = JunctionSpec(JunctionKind.DIVERGE, (p1,), (p2,), alphas=(1.0,))
            a = jc.solve(spec, [s1, s2])
            b = one_to_one(p1, s1, p2, s2)
            for f in dataclasses.fields(a):
                assert getattr(a, f.name) == getattr(b, f.name), f.name


class TestSpecValidation:
    def test_merge_priority_bounds(self):
        p = RoadParams(1.0, 2.0, 2.0)
        with pytest.raises(ValueError):
            JunctionSpec(JunctionKind.MERGE, (p, p), (p,), priority=1.0)

    def test_diverge_needs_ratios(self):
        p = RoadParams(1.0, 2.0, 2.0)
        with pytest.raises(ValueError):
            JunctionSpec(JunctionKind.DIVERGE, (p,), (p, p), alphas=(0.6, 0.6))

    @pytest.mark.parametrize("kind, n_in, n_out, fields, message", [
        (JunctionKind.ONE_TO_ONE, 2, 1, {}, "1-to-1 junction takes one incoming"),
        (JunctionKind.DIVERGE, 2, 2, {"alphas": (0.5, 0.5)}, "diverge takes one incoming"),
        (JunctionKind.DIVERGE, 1, 1, {"alphas": (0.5,)}, "single-outgoing diverge must have"),
        (JunctionKind.MERGE, 1, 1, {"priority": 0.5}, "merge takes two incoming"),
    ], ids=["one_to_one", "diverge", "single_outgoing_diverge", "merge"])
    def test_branch_counts_rejected(self, kind, n_in, n_out, fields, message):
        p = RoadParams(1.0, 2.0, 2.0)
        with pytest.raises(ValueError, match=message):
            JunctionSpec(kind, (p,) * n_in, (p,) * n_out, **fields)

    def test_state_count_and_trace_side_rejected(self):
        """Both paths reject a state count that does not match the branches."""
        p = RoadParams(1.0, 2.0, 2.0)
        s = TrafficState(0.5, 1.0)
        spec = JunctionSpec(JunctionKind.ONE_TO_ONE, (p,), (p,))
        for run in (jc.junction_fluxes, jc.solve):
            with pytest.raises(ValueError, match="expected 2 states, got 3"):
                run(spec, [s, s, s])

    @pytest.mark.parametrize("kind, n_in, n_out, fields, message", [
        ("merge", 3, 1, {}, "merge takes two incoming"),
        ("diverge", 1, 2, {"alphas": (0.7, 0.7)}, "assignment rates must sum to 1"),
        ("one_to_one", 1, 1, {"priority": 0.5}, "1-to-1 junction takes one incoming"),
        ("roundabout", 1, 1, {}, "not a valid JunctionKind"),
    ], ids=["merge", "diverge", "one_to_one", "unknown"])
    def test_kind_given_by_its_value_is_checked(self, kind, n_in, n_out, fields, message):
        """A plain-string kind goes through the checks of its JunctionKind."""
        p = RoadParams(180.0, 100.0, 1.2)
        with pytest.raises(ValueError, match=message):
            JunctionSpec(kind, (p,) * n_in, (p,) * n_out, **fields)

    def test_kind_and_branches_are_held_as_declared(self):
        """A kind's value and lists of roads and rates give the spec of the enum and tuples:
        equal, hashable, and solved alike."""
        p = RoadParams(180.0, 100.0, 1.2)
        s = TrafficState(30.0, 50.0)
        pairs = [
            (JunctionSpec(JunctionKind.ONE_TO_ONE, (p,), (p,)),
             JunctionSpec("one_to_one", [p], [p])),
            (JunctionSpec(JunctionKind.DIVERGE, (p,), (p, p), alphas=(0.3, 0.7)),
             JunctionSpec("diverge", [p], [p, p], alphas=[0.3, 0.7])),
            (JunctionSpec(JunctionKind.MERGE, (p, p), (p,), priority=0.4),
             JunctionSpec("merge", [p, p], [p], priority=0.4)),
        ]
        for spec, declared in pairs:
            assert declared == spec and hash(declared) == hash(spec)
            assert declared.kind is spec.kind
            assert all(type(x) is tuple for x in (declared.incoming, declared.outgoing))
            states = [s] * (len(spec.incoming) + len(spec.outgoing))
            assert jc.junction_fluxes(declared, states) == jc.junction_fluxes(spec, states)
        assert pairs[1][1].alphas == (0.3, 0.7)

    @pytest.mark.parametrize("kind, n_in, n_out, field", [
        (JunctionKind.MERGE, 2, 1, "alphas"), (JunctionKind.DIVERGE, 1, 2, "priority")])
    def test_field_of_the_other_kind_rejected(self, kind, n_in, n_out, field):
        """A merge takes no assignment rates and a diverge no priority: they would be ignored."""
        p = RoadParams(1.0, 2.0, 2.0)
        fields = {"alphas": (0.2, 0.8), "priority": 0.5}
        with pytest.raises(ValueError, match=field):
            JunctionSpec(kind, (p,) * n_in, (p,) * n_out, **fields)
        other = "priority" if field == "alphas" else "alphas"
        JunctionSpec(kind, (p,) * n_in, (p,) * n_out, **{other: fields[other]})

    def test_dispatch(self, monkeypatch):
        """``solve`` sends merges, and only merges, through ``solve_merge``."""
        p = RoadParams(1.0, 2.0, 2.0)
        s = TrafficState(0.5, 1.0)
        calls = []
        solve_merge = jc.solve_merge
        monkeypatch.setattr(jc, "solve_merge", lambda *a: calls.append(a) or solve_merge(*a))
        merge = JunctionSpec(JunctionKind.MERGE, (p, p), (p,), priority=0.3)
        assert jc.solve(merge, [s, s, s]) == solve_merge((p, s), (p, s), (p, s), 0.3)
        assert calls == [((p, s), (p, s), (p, s), 0.3)]
        jc.solve(JunctionSpec(JunctionKind.ONE_TO_ONE, (p,), (p,)), [s, s])
        jc.solve(JunctionSpec(JunctionKind.DIVERGE, (p,), (p, p), alphas=(0.5, 0.5)), [s, s, s])
        assert len(calls) == 1


class TestConsistency:
    def test_one_trace_per_branch(self, monkeypatch):
        """The re-solve from the traces needs only its fluxes: one trace per branch in all."""
        p, q = ROAD_IN, ROAD_OUT
        s, t = fd.equilibrium_state(p, 30.0), fd.equilibrium_state(q, 60.0)
        cases = [
            (JunctionSpec(JunctionKind.ONE_TO_ONE, (p,), (q,)), [s, t]),
            (JunctionSpec(JunctionKind.DIVERGE, (p,), (q, p, q), alphas=(0.2, 0.3, 0.5)),
             [s, t, s, t]),
            (JunctionSpec(JunctionKind.MERGE, (p, p), (q,), priority=0.3), [s, s, t]),
        ]
        calls = []
        reconstruct = jc.reconstruct_boundary_state
        monkeypatch.setattr(jc, "reconstruct_boundary_state",
                            lambda *a: calls.append(a) or reconstruct(*a))
        for spec, states in cases:
            sol = jc.solve(spec, states)
            sol2 = jc.solve(spec, sol.boundary_in + sol.boundary_out)
            dev = max(abs(a - b) for a, b in zip(sol.q_in + sol.q_out, sol2.q_in + sol2.q_out))
            calls.clear()
            assert jc.check_consistency(spec, states) == jc.ConsistencyReport(dev, sol.case)
            assert len(calls) == len(states)


class TestAdmissibility:
    def test_clean_one_to_one(self):
        rng = np.random.default_rng(59)
        for _ in range(200):
            p1, p2 = rand_params(rng), rand_params(rng)
            s1, s2 = rand_state(rng, p1), rand_state(rng, p2)
            spec = JunctionSpec(JunctionKind.ONE_TO_ONE, (p1,), (p2,))
            sol = jc.solve(spec, [s1, s2])
            rep = jc.check_admissibility(spec, [s1, s2], sol)
            assert rep.ok, rep

    def test_detects_bad_boundary_state(self):
        p = ROAD_IN
        s = fd.equilibrium_state(p, 30.0)
        spec = JunctionSpec(JunctionKind.ONE_TO_ONE, (p,), (p,))
        sol = jc.solve(spec, [s, s])
        # Corrupt the incoming boundary state: a free-flow state denser than
        # the trace generates a wave moving into the junction.
        w = sol.w_in[0]
        rho_bad = 100.0
        v_bad = w - float(fd.pressure(p, rho_bad))
        corrupted = dataclasses.replace(sol, boundary_in=(TrafficState(rho_bad, v_bad),))
        rep = jc.check_admissibility(spec, [s, s], corrupted)
        assert not rep.ok

    def test_detects_bad_outgoing_boundary_state(self):
        """An outgoing trace denser than the modified density rho_t: a rarefaction from
        it to rho_t has a left edge that moves into the junction."""
        p = ROAD_IN
        s_in, s_out = fd.equilibrium_state(p, 30.0), fd.equilibrium_state(p, 120.0)
        spec = JunctionSpec(JunctionKind.ONE_TO_ONE, (p,), (p,))
        sol = jc.solve(spec, [s_in, s_out])
        assert jc.check_admissibility(spec, [s_in, s_out], sol).ok
        w = sol.w_out[0]
        rho_bad = 1.2 * jc.modified_density(p, w, s_out.v)
        bad = TrafficState(rho_bad, w - float(fd.pressure(p, rho_bad)))
        corrupted = dataclasses.replace(sol, boundary_out=(bad,))
        rep = jc.check_admissibility(spec, [s_in, s_out], corrupted)
        [(branch, family, speed)] = rep.violations
        assert (branch, family) == ("out0", "first-family") and speed < 0.0
