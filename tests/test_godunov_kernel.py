"""The simulator's vector Godunov fluxes against the scalar 1-to-1 flux and solver.

``sim.step`` evaluates every edge of a road, the two external ends included,
in one call of ``junction.demand_supply``. Each edge must carry the flux of
``sim.interface_flux`` and of ``junction.solve`` (1-to-1) on the states on
either side of it: the frozen ghosts at the ends, the cells in between. Every
edge reads a cell's attribute as w = y / rho, the last edge too; a cell with
w below p(rho), which no ``TrafficState`` holds, is checked only against those
formulas. The kernels write into the group's work arrays, and a road alone in
its shape's group keeps its fluxes there after the step; their bits must be
those of the same formulas with one new array per operation.
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
    """Parameters, conservative (rho, y) per cell, the two ghost states and the index of
    the cell that holds w = y / rho below p(rho), or None.

    Such a cell's speed is clipped to 0, and no ``TrafficState`` holds it: its
    scalar state reads w = v + p(rho) = p(rho), where its edges read y / rho.
    """
    p = draw(params)
    cells = [fd.to_conservative(p, draw(state(p))) for _ in range(draw(st.integers(1, 12)))]
    low = draw(st.one_of(st.none(), st.integers(0, len(cells) - 1)))
    if low is not None:
        rho = draw(st.floats(1e-3, p.rho_max))
        cells[low] = rho, rho * draw(st.floats(0.0, 0.99)) * float(fd.pressure(p, rho))
    ghosts = draw(state(p)), draw(state(p))
    return p, cells, ghosts, low


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(road())
def test_vector_edges_match_scalar_flux(case):
    p, cells, (g_left, g_right), low = case
    n = len(cells)
    rho, y = zip(*cells)
    r = sim.DiscretizedRoad("r", p, 1.0, n, np.array(rho), np.array(y),
                            ghost_left=g_left, ghost_right=g_right)
    states = [fd.from_conservative(p, float(a), float(b)) for a, b in zip(r.rho, r.y)]
    batch = sim.batch_of([sim.Network({"r": r})])
    sim.step(batch, sim.SimConfig(), np.zeros(1))  # dt = 0: only the fluxes
    work = batch.groups[0].work  # the one group's flux arrays hold the step's fluxes
    fm, fy = work.mass[0, 0], work.momentum[0, 0]
    atol = ATOL * p.rho_max * p.v_ref
    for i, (left, right) in enumerate(zip([g_left, *states], [*states, g_right])):
        if i - 1 == low:  # its left cell's y / rho is not its scalar state's w
            continue
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
    pe, we = np.concatenate([[g_p], p_c]), np.concatenate([[g_w], w_c])
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
    p, cells, (g_left, g_right), _ = case
    rho, y = (np.array(x) for x in zip(*cells))
    r = sim.DiscretizedRoad("r", p, 1.0, len(cells), rho.copy(), y.copy(),
                            ghost_left=g_left, ghost_right=g_right)
    batch = sim.batch_of([sim.Network({"r": r})])
    sim.step(batch, sim.SimConfig(), np.zeros(1))  # dt = 0: only the fluxes
    rows = batch.groups[0]
    got = (rows.work.p[0, 0], rows.work.w[0, 0], rows.work.v[0, 0],
           rows.work.mass[0, 0], rows.work.momentum[0, 0])
    want = allocating_edges(p, rho, y, rows.ghosts[0, 0])
    for name, g, w in zip(("p", "w", "v", "mass flux", "momentum flux"), got, want):
        assert g.tobytes() == w.tobytes(), name


def test_the_right_external_end_reads_the_last_cell_as_y_over_rho():
    """The last cell holds w = y / rho below p(rho): the momentum flux at the road's
    right external end is the mass flux times that w, not times p(rho)."""
    p = RoadParams(180.0, 100.0, 1.2)
    rho, y = (np.full(5, x) for x in fd.to_conservative(p, TrafficState(50.0, 20.0)))
    rho[-1] = 60.0
    y[-1] = 0.5 * rho[-1] * fd.pressure(p, rho[-1])
    net = sim.Network({"r": sim.DiscretizedRoad("r", p, 1.0, 5, rho, y,
                                                ghost_right=TrafficState(10.0, 80.0))})
    assert net.external_ends == [("r", 0), ("r", -1)]
    _, _, external = sim.step(sim.batch_of([net]), sim.SimConfig(), np.zeros(1))
    mass, momentum = external[0, 1].tolist()
    assert mass > 0.0
    assert momentum == mass * (y[-1] / rho[-1])
