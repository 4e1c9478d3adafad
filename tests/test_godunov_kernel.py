"""The simulator's vector Godunov fluxes against the scalar 1-to-1 flux and solver.

``sim.step`` evaluates every edge of a road, the two external ends included,
in one call of ``junction.demand_supply``. Each edge must carry the flux of
``sim.interface_flux`` and of ``junction.solve`` (1-to-1) on the states on
either side of it: the frozen ghosts at the ends, the cells in between.
The kernels write into the group's work arrays; their bits must be those of
the same formulas with one new array per operation.
"""

import numpy as np
import pytest

from arznet import fundamental as fd
from arznet import junction as jc
from arznet import sim
from arznet.fundamental import RoadParams, TrafficState
from shared_strategies import hypothesis, st

RTOL = 1e-12
# absolute slack, relative to the road's flux scale rho_max * v_ref, for fluxes near 0
ATOL = 1e-12

params = st.builds(
    RoadParams,
    rho_max=st.floats(20.0, 300.0),
    v_ref=st.floats(40.0, 160.0),
    gamma=st.one_of(st.floats(0.5, 4.0), st.sampled_from([1.0, 2.0, 3.0])),
)


@st.composite
def state(draw, p):
    """A primitive state: vacuum, near jam or anywhere in between; speed 0 or positive."""
    rho = draw(st.one_of(
        st.floats(0.0, 0.5 * fd.VACUUM_RHO),
        st.floats(0.95 * p.rho_max, p.rho_max),
        st.floats(1e-3, 0.98 * p.rho_max),
    ))
    v = draw(st.one_of(st.just(0.0), st.floats(0.0, 0.1), st.floats(0.0, p.v_ref)))
    return TrafficState(rho, v)


@st.composite
def road(draw):
    """Parameters, conservative (rho, y) per cell and the two ghost states.

    The last cell may hold w = y / rho below p(rho), a state whose speed is
    clipped to 0: its edge to the right ghost must take w = v + p(rho) = p(rho)
    like a scalar state, while w = y / rho enters no other edge.
    """
    p = draw(params)
    cells = [fd.to_conservative(p, draw(state(p))) for _ in range(draw(st.integers(1, 12)))]
    if draw(st.booleans()):
        rho = draw(st.floats(1e-3, p.rho_max))
        cells[-1] = rho, rho * draw(st.floats(0.0, 0.99)) * float(fd.pressure(p, rho))
    ghosts = draw(state(p)), draw(state(p))
    return p, cells, ghosts


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(road())
def test_vector_edges_match_scalar_flux(case):
    p, cells, (g_left, g_right) = case
    n = len(cells)
    rho, y = zip(*cells)
    r = sim.DiscretizedRoad("r", p, 1.0, n, np.array(rho), np.array(y),
                            ghost_left=g_left, ghost_right=g_right)
    states = [fd.from_conservative(p, float(a), float(b)) for a, b in zip(r.rho, r.y)]
    batch = sim.batch_of([sim.Network({"r": r})])
    _, _, edge = sim.step(batch, sim.SimConfig(), np.zeros(1))  # dt = 0: only the fluxes
    fm, fy = (f[0] for f in edge["r"])  # the one member's row
    atol = ATOL * p.rho_max * p.v_ref
    for i, (left, right) in enumerate(zip([g_left, *states], [*states, g_right])):
        q, mom = sim.interface_flux((p, left), (p, right))
        assert fm[i] == pytest.approx(q, rel=RTOL, abs=atol), i
        assert fy[i] == pytest.approx(mom, rel=RTOL, abs=atol * p.v_ref), i
        sol = jc.solve(jc.JunctionSpec(jc.JunctionKind.ONE_TO_ONE, (p,), (p,)), [left, right])
        assert fm[i] == pytest.approx(sol.q_in[0], rel=RTOL, abs=atol), i


def allocating_edges(p: RoadParams, rho, y, ghosts):
    """p, w and v of the left (p, w) and right (v) state of each edge, and the mass and
    momentum fluxes, by the simulator's formulas with one new array per operation."""
    g_rho, g_p, g_w, g_v = ghosts
    p_c = (rho / p.rho_max) ** p.gamma * (p.v_ref / p.gamma)
    vac = rho < fd.VACUUM_RHO
    w_c = y / np.where(vac, 1.0, rho)
    w_c[vac] = p.v_ref
    v_c = np.maximum(w_c - p_c, 0.0)
    v_c[vac] = p.v_ref
    w_last = v_c[-1] + p_c[-1] if rho[-1] >= fd.VACUUM_RHO else v_c[-1]
    pe, we = np.concatenate([[g_p], p_c]), np.concatenate([[g_w], w_c[:-1], [w_last]])
    ve, re = np.concatenate([v_c, [g_v]]), np.concatenate([[g_rho], rho])
    sigma = p.rho_max * (we * p.gamma / (p.v_ref * (1.0 + p.gamma))) ** (1.0 / p.gamma)
    cap = (we * p.gamma / (1.0 + p.gamma)) * sigma
    demand = np.maximum(np.where(re <= sigma, (we - pe) * re, cap), 0.0)
    rho_t = p.rho_max * np.maximum(0.0, (p.gamma / p.v_ref) * (we - ve)) ** (1.0 / p.gamma)
    p_t = (rho_t / p.rho_max) ** p.gamma * (p.v_ref / p.gamma)
    supply = np.maximum(np.where(rho_t <= sigma, cap, (we - p_t) * rho_t), 0.0)
    fm = np.minimum(demand, supply)
    return pe, we, ve, fm, we * fm


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(road())
def test_work_arrays_hold_the_bits_of_the_allocating_formulas(case):
    p, cells, (g_left, g_right) = case
    rho, y = (np.array(x) for x in zip(*cells))
    r = sim.DiscretizedRoad("r", p, 1.0, len(cells), rho.copy(), y.copy(),
                            ghost_left=g_left, ghost_right=g_right)
    batch = sim.batch_of([sim.Network({"r": r})])
    _, _, edge = sim.step(batch, sim.SimConfig(), np.zeros(1))  # dt = 0: only the fluxes
    rows = batch.groups[0]
    got = rows.work.p[0, 0], rows.work.w[0, 0], rows.work.v[0, 0], *(f[0] for f in edge["r"])
    want = allocating_edges(p, rho, y, rows.ghosts[0, 0])
    for name, g, w in zip(("p", "w", "v", "mass flux", "momentum flux"), got, want):
        assert g.tobytes() == w.tobytes(), name
