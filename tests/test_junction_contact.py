"""The simulated junction flux against the junction Riemann solver's flux.

For constant data on each road the exact junction flux stays that of the
initial states until a wave comes back from a far road end. Where every road
starts on the first incoming road's attribute w, no contact discontinuity
forms at the junction, and the simulator keeps the solver's flux exactly.
Where the attributes differ, a contact forms and the simulated flux drifts
from the solver's; ``TestContactDrift`` bounds how far.
"""

import math

import numpy as np
import pytest

from arznet import fundamental as fd
from arznet import junction as jn
from arznet import sim
from arznet.fundamental import RoadParams, TrafficState
from arznet.junction import JunctionKind, JunctionSpec
from shared import rand_params, rand_state
from shared_strategies import hypothesis, params, priorities, st

LENGTH, CELLS = 1.0, 40  # [km], cells per road
CONTACT_CELLS = 400      # cells per road of the contact measurement


@st.composite
def matched_junctions(draw):
    """A 1-to-1 junction, a two- or three-way diverge or a merge, every road at the
    attribute w1 of the first incoming road: (spec, road ids, states)."""
    kind, m = draw(st.sampled_from([(JunctionKind.ONE_TO_ONE, 1), (JunctionKind.DIVERGE, 2),
                                    (JunctionKind.DIVERGE, 3), (JunctionKind.MERGE, 1)]))
    n = 2 if kind is JunctionKind.MERGE else 1
    ps = [draw(params) for _ in range(n + m)]
    p1 = ps[0]
    first = TrafficState(draw(st.floats(0.05, 0.95)) * p1.rho_max,
                         draw(st.floats(0.1, 1.0)) * p1.v_ref)
    w1 = fd.attribute(p1, first)
    states = [first]
    for p in ps[1:]:
        v = draw(st.floats(0.1, 1.0)) * min(p.v_ref, w1)
        states.append(TrafficState(fd.pressure_inv(p, w1 - v), v))
    alphas = priority = None
    if kind is JunctionKind.DIVERGE:
        weights = [draw(st.floats(0.05, 1.0)) for _ in range(m)]
        alphas = tuple(wt / math.fsum(weights) for wt in weights[:-1])
        alphas += (1.0 - math.fsum(alphas),)
    elif kind is JunctionKind.MERGE:
        priority = draw(priorities)
    spec = JunctionSpec(kind, tuple(ps[:n]), tuple(ps[n:]), alphas, priority)
    ids = [f"r{k}" for k in range(n + m)]
    return spec, ids[:n], ids[n:], states


# a merge that holds back a dense incoming road (r1, above rho_max): the shock it sends
# into r1 is faster than any cell's waves, so the step must bound its speed
HELD_BACK = (
    JunctionSpec(JunctionKind.MERGE,
                 (RoadParams(20.0, 40.0, 0.5), RoadParams(20.0, 40.0, 3.0)),
                 (RoadParams(20.0, 40.0, 0.5),), None, 0.03125),
    ["r0", "r1"], ["r2"],
    [TrafficState(10.0, 10.0), TrafficState(25.167475833575352, 40.0),
     TrafficState(2.2058982822017876, 40.0)],
)


def _sub_vacuum():
    """A merge drawn as ``matched_junctions`` draws one: r0 at (rho, v) = (1, 4), so
    w1 = 6; r1 at v = 0.9999999999999 w1, which puts it at rho = 2.93e-13, below
    ``VACUUM_RHO``; r2 at v = 0.5 w1."""
    p0, p1 = RoadParams(20.0, 40.0, 1.0), RoadParams(20.0, 41.0, 1.0)
    first = TrafficState(1.0, 4.0)
    w1 = fd.attribute(p0, first)
    states = [first] + [TrafficState(fd.pressure_inv(p, w1 - v), v)
                        for p, v in ((p1, 0.9999999999999 * w1), (p0, 0.5 * w1))]
    spec = JunctionSpec(JunctionKind.MERGE, (p0, p1), (p0,), None, 0.03125)
    return spec, ["r0", "r1"], ["r2"], states


SUB_VACUUM = _sub_vacuum()


def random_junction(seed):
    """Junction ``seed`` of the contact measurement, in ``matched_junctions``' form: a
    1-to-1 (seed % 3 == 0), a two- or three-way diverge (1) or a merge (2). Each road has
    its own random parameters and uniform state, so a contact forms wherever the
    attributes differ."""
    rng = np.random.default_rng(seed)
    kind = (JunctionKind.ONE_TO_ONE, JunctionKind.DIVERGE, JunctionKind.MERGE)[seed % 3]
    n, m = 1, 1
    if kind is JunctionKind.DIVERGE:
        m = int(rng.integers(2, 4))
    elif kind is JunctionKind.MERGE:
        n = 2
    ps = [rand_params(rng) for _ in range(n + m)]
    states = [rand_state(rng, p) for p in ps]
    alphas = priority = None
    if kind is JunctionKind.DIVERGE:
        weights = rng.uniform(0.05, 1.0, m).tolist()
        alphas = tuple(wt / math.fsum(weights) for wt in weights[:-1])
        alphas += (1.0 - math.fsum(alphas),)
    elif kind is JunctionKind.MERGE:
        priority = float(rng.uniform(0.05, 0.95))
    spec = JunctionSpec(kind, tuple(ps[:n]), tuple(ps[n:]), alphas, priority)
    ids = [f"r{k}" for k in range(n + m)]
    return spec, ids[:n], ids[n:], states


def simulated_and_solver_fluxes(case, cells):
    """The simulated flux series at each junction end, up to before a wave from a far
    road end can reach the junction, and the solver's flux of the initial states there."""
    spec, in_ids, out_ids, states = case
    want = jn.junction_fluxes(spec, states)
    roads = {rid: sim.road_from_state(rid, p, LENGTH, cells, s)
             for rid, p, s in zip(in_ids + out_ids, spec.incoming + spec.outgoing, states)}
    # no wave from a far road end reaches the junction
    speed = max(max(abs(s.v - p.gamma * fd.pressure(p, s.rho)), s.v, p.v_ref)
                for p, s in zip(spec.incoming + spec.outgoing, states))
    cfg = sim.SimConfig(t_end=0.3 * LENGTH / speed, output_stride=1, steady_tol=0.0)
    nj = sim.NetworkJunction(spec, tuple(in_ids), tuple(out_ids))
    res = sim.run(sim.Network(roads, [nj]), cfg)
    assert res.steps > 1
    ends = [(rid, -1) for rid in in_ids] + [(rid, 0) for rid in out_ids]
    return [(end, res.flux_series[end][:, 0], q) for end, q in zip(ends, want.q_in + want.q_out)]


def flux_drift(case) -> tuple[float, float]:
    """How far the simulated junction flux leaves the solver's, relative to the largest
    solver flux at the junction: the largest deviation over the records and ends, and
    the largest over the ends at the last record."""
    series = simulated_and_solver_fluxes(case, CONTACT_CELLS)
    scale = max(q for _, _, q in series)
    return (max(float(np.max(np.abs(got - q))) for _, got, q in series) / scale,
            max(abs(float(got[-1]) - q) for _, got, q in series) / scale)


@hypothesis.settings(max_examples=100, deadline=None)
@hypothesis.given(matched_junctions())
@hypothesis.example(HELD_BACK)
def test_no_contact_keeps_the_solver_flux(case):
    for end, got, q in simulated_and_solver_fluxes(case, CELLS):
        np.testing.assert_allclose(got, q, rtol=1e-12, atol=0.0, err_msg=str(end))


@pytest.mark.xfail(strict=True, reason="a road below VACUUM_RHO moves at v_ref (ROADMAP item 6)")
def test_no_contact_keeps_the_solver_flux_below_vacuum():
    for end, got, q in simulated_and_solver_fluxes(SUB_VACUUM, CELLS):
        np.testing.assert_allclose(got, q, rtol=1e-12, atol=0.0, err_msg=str(end))


def test_the_step_bounds_the_shock_into_a_held_back_road():
    spec, in_ids, out_ids, states = HELD_BACK
    sol = jn.solve(spec, states)
    s0, trace = states[1], sol.boundary_in[1]
    # Rankine-Hugoniot speed between r1's state and the solver's trace on it
    speed = abs((sol.q_in[1] - s0.rho * s0.v) / (trace.rho - s0.rho))
    roads = {rid: sim.road_from_state(rid, p, LENGTH, CELLS, s)
             for rid, p, s in zip(in_ids + out_ids, spec.incoming + spec.outgoing, states)}
    net = sim.Network(roads, [sim.NetworkJunction(spec, tuple(in_ids), tuple(out_ids))])
    cfg = sim.SimConfig()
    dt, _, _ = sim.step(sim.batch_of([net]), cfg, np.array([1.0]))

    dx = LENGTH / CELLS
    # the cells' bound: uniform roads, the fastest of |lambda_1|, v and v_ref
    cells_dt = cfg.cfl * dx / max(max(abs(fd.lambda1(p, s.rho, fd.attribute(p, s))), s.v, p.v_ref)
                                  for p, s in zip(spec.incoming + spec.outgoing, states))
    assert speed * cells_dt > cfg.cfl * dx  # the cells' bound alone lets the shock overrun
    assert dt[0] < cells_dt
    np.testing.assert_allclose(dt[0], cfg.cfl * dx / speed, rtol=1e-9)


class TestContactDrift:
    """Where the roads' attributes differ, a contact forms at the junction and the
    simulated flux leaves the solver's. The cells behind the contact mix the two
    attributes, and the supply or demand of the mixed states is not that of the exact
    solution's middle state. Seeds 0-299 of ``random_junction``, 100 of each kind:
    about a third drift, by up to the bounds below.
    """

    # per kind, the worst peak and last-record drift of those 300 junctions, rounded up
    BOUNDS = {JunctionKind.ONE_TO_ONE: (4.7, 2.1), JunctionKind.DIVERGE: (6.8, 6.3),
              JunctionKind.MERGE: (46.0, 4.7)}

    # the seeds of those worst cases
    @pytest.mark.parametrize("seed", [90, 216, 238, 35, 251])
    def test_drift_is_bounded(self, seed):
        case = random_junction(seed)
        (peak, last), (peak_bound, last_bound) = flux_drift(case), self.BOUNDS[case[0].kind]
        assert peak <= peak_bound and last <= last_bound
