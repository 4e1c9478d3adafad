"""The time loop's junction pass against the API's junction solver.

``sim.step`` hands each junction's end cells to the solver as plain floats.
Its junction fluxes must be those of ``junction_fluxes`` on the states that
``fd.from_conservative`` gives for the same cells, bit for bit, vacuum and
sub-vacuum end cells included.
"""

import math

import numpy as np
import pytest

from arznet import fundamental as fd
from arznet import junction as jc
from arznet import sim
from arznet.fundamental import TrafficState
from arznet.junction import JunctionKind, JunctionSpec
from arznet.rootfind import SolverFailure
from shared_strategies import gamma_params, hypothesis, priorities, st

# (incoming, outgoing) road counts of each junction drawn
SHAPES = {"one_to_one": (1, 1), "diverge2": (1, 2), "diverge3": (1, 3), "merge": (2, 1)}


@st.composite
def spec_of(draw, shape, ps):
    n_in = SHAPES[shape][0]
    if shape == "one_to_one":
        return JunctionSpec(JunctionKind.ONE_TO_ONE, tuple(ps[:1]), tuple(ps[1:]))
    if shape == "merge":
        return JunctionSpec(JunctionKind.MERGE, tuple(ps[:2]), tuple(ps[2:]),
                            priority=draw(priorities))
    weights = [draw(st.floats(0.05, 1.0)) for _ in ps[n_in:]]
    alphas = tuple(wt / sum(weights) for wt in weights[:-1])
    return JunctionSpec(JunctionKind.DIVERGE, tuple(ps[:1]), tuple(ps[1:]),
                        alphas=alphas + (1.0 - sum(alphas),))


@st.composite
def cell(draw, p):
    """(rho, y) of a cell at vacuum, below VACUUM_RHO, or up to 1.2 rho_max."""
    sub_vacuum = st.floats(0.0, fd.VACUUM_RHO, exclude_min=True, exclude_max=True)
    rho = draw(st.one_of(st.just(0.0), sub_vacuum, st.floats(1e-3, 1.2 * p.rho_max)))
    rho, y = fd.to_conservative(p, TrafficState(rho, draw(st.floats(0.0, p.v_ref))))
    return rho, y


@st.composite
def junction_batches(draw):
    """A junction of every kind on roads of two cells, and one to four members' cells."""
    shape = draw(st.sampled_from(sorted(SHAPES)))
    n_in, n_out = SHAPES[shape]
    ps = [draw(gamma_params) for _ in range(n_in + n_out)]
    spec = draw(spec_of(shape, ps))
    ids = "abcd"[:n_in + n_out]
    nj = sim.NetworkJunction(spec, tuple(ids[:n_in]), tuple(ids[n_in:]))
    nets = []
    for _ in range(draw(st.integers(1, 4))):
        roads = {}
        for rid, p in zip(ids, ps):
            rho, y = zip(*[draw(cell(p)) for _ in range(2)])
            roads[rid] = sim.DiscretizedRoad(rid, p, 1.0, 2, np.array(rho), np.array(y))
        nets.append(sim.Network(roads, [nj]))
    return nj, nets


def api_rows(nj, net):
    """(q, q w, w) of each end from ``junction_fluxes``, the incoming totals on a sole outgoing road."""
    states = [fd.from_conservative(net.roads[rid].params, float(net.roads[rid].rho[idx]),
                                   float(net.roads[rid].y[idx])) for rid, idx in nj.ends]
    fl = jc.junction_fluxes(nj.spec, states)
    mom_in = [q * w for q, w in zip(fl.q_in, fl.w_in)]
    rows = [[q, m, w] for q, m, w in zip(fl.q_in, mom_in, fl.w_in)]
    if len(fl.q_out) == 1:
        return rows + [[math.fsum(fl.q_in), math.fsum(mom_in), fl.w_out[0]]]
    return rows + [[q, q * w, w] for q, w in zip(fl.q_out, fl.w_out)]


@hypothesis.settings(max_examples=150, deadline=None)
@hypothesis.given(junction_batches())
def test_step_junction_fluxes_are_junction_fluxes(case):
    nj, nets = case
    try:
        want = [api_rows(nj, net) for net in nets]
    except SolverFailure:
        with pytest.raises(SolverFailure):
            sim.step(sim.batch_of(nets), sim.SimConfig(), np.full(len(nets), math.inf))
        return
    _, jfs, _ = sim.step(sim.batch_of(nets), sim.SimConfig(), np.full(len(nets), math.inf))
    assert jfs.tolist() == want
