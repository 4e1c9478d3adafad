"""The simulated junction flux against the junction Riemann solver's flux.

For constant data on each road the exact junction flux stays that of the
initial states until a wave comes back from a far road end. Where every road
starts on the first incoming road's attribute w, no contact discontinuity
forms at the junction, and the simulator keeps the solver's flux exactly.
"""

import math

import numpy as np

from arznet import fundamental as fd
from arznet import junction as jn
from arznet import sim
from arznet.fundamental import RoadParams, TrafficState
from arznet.junction import JunctionKind, JunctionSpec
from shared_strategies import hypothesis, params, priorities, st

LENGTH, CELLS = 1.0, 40  # [km], cells per road


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


@hypothesis.settings(max_examples=100, deadline=None)
@hypothesis.given(matched_junctions())
@hypothesis.example(HELD_BACK)
def test_no_contact_keeps_the_solver_flux(case):
    spec, in_ids, out_ids, states = case
    want = jn.junction_fluxes(spec, states)
    roads = {rid: sim.road_from_state(rid, p, LENGTH, CELLS, s)
             for rid, p, s in zip(in_ids + out_ids, spec.incoming + spec.outgoing, states)}
    # no wave from a far road end reaches the junction
    speed = max(max(abs(s.v - p.gamma * fd.pressure(p, s.rho)), s.v, p.v_ref)
                for p, s in zip(spec.incoming + spec.outgoing, states))
    cfg = sim.SimConfig(t_end=0.3 * LENGTH / speed, output_stride=1, steady_tol=0.0)
    nj = sim.NetworkJunction(spec, tuple(in_ids), tuple(out_ids))
    res = sim.run(sim.Network(roads, [nj]), cfg)

    assert res.steps > 1
    ends = [(rid, -1) for rid in in_ids] + [(rid, 0) for rid in out_ids]
    for end, q in zip(ends, want.q_in + want.q_out):
        np.testing.assert_allclose(res.flux_series[end][:, 0], q, rtol=1e-12, atol=0.0,
                                   err_msg=str(end))


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
