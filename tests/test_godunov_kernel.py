"""The simulator's vector Godunov fluxes against the scalar 1-to-1 flux and solver.

``sim.step`` evaluates every edge of a road, the two external ends included,
in one call of ``junction.demand_supply``. Each edge must carry the flux of
``sim.interface_flux`` and of ``junction.solve`` (1-to-1) on the states on
either side of it: the frozen ghosts at the ends, the cells in between.
"""

import numpy as np
import pytest

from arznet import fundamental as fd
from arznet import junction as jc
from arznet import sim
from arznet.fundamental import RoadParams, TrafficState

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

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
    _, edge = sim.step(batch, np.zeros(1), {"r": sim._cells(batch.roads["r"])})
    fm, fy = (f[0] for f in edge["r"])  # the one member's row
    atol = ATOL * p.rho_max * p.v_ref
    for i, (left, right) in enumerate(zip([g_left, *states], [*states, g_right])):
        q, mom = sim.interface_flux((p, left), (p, right))
        assert fm[i] == pytest.approx(q, rel=RTOL, abs=atol), i
        assert fy[i] == pytest.approx(mom, rel=RTOL, abs=atol * p.v_ref), i
        sol = jc.solve(jc.JunctionSpec(jc.JunctionKind.ONE_TO_ONE, (p,), (p,)), [left, right])
        assert fm[i] == pytest.approx(sol.q_in[0], rel=RTOL, abs=atol), i
