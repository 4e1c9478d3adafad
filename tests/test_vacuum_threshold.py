"""The simulator's vacuum threshold, on networks whose roads are about half empty.

``sim`` reads a cell at or above ``VACUUM_RHO`` as w = y / rho and a cell below
it as vacuum, at w = v = v_ref. A cell that drains toward rho = 0 therefore
stops driving the time step once it falls below the threshold, and every run
reaches its t_end in a bounded number of steps.

ARZ also keeps w = y / rho inside the range of its data (the invariant region
of Aw & Rascle, SIAM J. Appl. Math. 60(3), 2000). The simulator does not: a
cell below the threshold sends its mass on at w = v_ref, and the cells above
it that take that mass leave the range (ROADMAP item 6).
"""

import numpy as np
import pytest

from arznet import fundamental as fd
from arznet import sim
from arznet.fundamental import RoadParams, TrafficState
from arznet.junction import JunctionKind, JunctionSpec
from shared_strategies import hypothesis, instance, st

LENGTH, CELLS = 1.0, 40  # [km], cells per road
T_END = 0.05             # [h]
RTOL = 1e-12


@st.composite
def sparse_junction(draw):
    """A random junction of any kind (``shared_strategies.instance``): (spec, the state
    of each road, the empty cells of each road, about half of them, and the run's cfl)."""
    spec, states = draw(instance())
    empty = [tuple(draw(st.lists(st.booleans(), min_size=CELLS, max_size=CELLS)))
             for _ in states]
    return spec, states, empty, draw(st.sampled_from([0.5, 1.0]))


def run(spec, states, empty, cfl):
    """The network of a ``sparse_junction`` draw, each road at its state but in its empty
    cells (rho = 0), run to ``T_END``. Returns the network, which holds the final state,
    and the range of w = y / rho over the initial data."""
    ids = [f"r{k}" for k in range(len(states))]
    roads = {}
    for rid, p, s, e in zip(ids, spec.incoming + spec.outgoing, states, empty):
        rho, y = (np.where(e, 0.0, x) for x in fd.to_conservative(p, s))
        roads[rid] = sim.DiscretizedRoad(rid, p, LENGTH, CELLS, rho, y)
    # each ghost is frozen at its road's end cell: the cells hold all of the data
    w = np.concatenate([r.y[r.rho > 0.0] / r.rho[r.rho > 0.0] for r in roads.values()])
    n_in = len(spec.incoming)
    net = sim.Network(roads, [sim.NetworkJunction(spec, tuple(ids[:n_in]), tuple(ids[n_in:]))])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sim, "MAX_STEPS", 50_000)
        res = sim.run(net, sim.SimConfig(t_end=T_END, cfl=cfl, output_stride=1000,
                                         steady_tol=0.0))
    assert res.times[-1] >= T_END * (1.0 - 1e-12), res.steps
    return net, (w.min(), w.max()) if w.size else None


def _empty(*roads):
    """Empty-cell masks written as strings, x for an empty cell."""
    return [tuple(c == "x" for c in road) for road in roads]


# a merge on which a threshold of 0 (w = y / rho wherever rho > 0) overflows in
# fd._capacity and runs out of steps: the y / rho of drained cells drives the wave speed
RUNAWAY = (JunctionSpec(JunctionKind.MERGE,
                        (RoadParams(35.976918470851, 103.65559296839692, 1.6523920886844887),
                         RoadParams(270.38761130514354, 131.64865103541078, 3.077674814227855)),
                        (RoadParams(59.80762044940831, 80.07138963639505, 0.6773863093057171),),
                        priority=0.9710530652250745),
           [TrafficState(3.1982913430531887, 1.9), TrafficState(86.88932103288421, 4.0),
            TrafficState(58.95252605464492, 38.73690450496152)],
           _empty("----xx--x----x-x-xx-xx-x--x-x-x-x-xx-xxx",
                  "x--xx-xxx----x-x---x-x----xx------x-xxxx",
                  "x-----x------x-xx---xx-xx-x----x--x-x-xx"), 1.0)


@hypothesis.settings(max_examples=20, deadline=None)
@hypothesis.given(sparse_junction())
@hypothesis.example(RUNAWAY)
def test_every_run_reaches_t_end(case):
    net, _ = run(*case)
    for r in net.roads.values():
        assert np.isfinite(r.y).all()


# a 1-to-1 junction of two standing roads at rho = 1e-3, every other cell empty. A cell
# holds w = p(rho) = 5e-8 and sends on the capacity of that w, about 2e-11 veh/h: the
# empty cells take it below VACUUM_RHO and pass it on at w = v_ref
_P = RoadParams(20.0, 40.0, 2.0)
STANDING = (JunctionSpec(JunctionKind.ONE_TO_ONE, (_P,), (_P,)),
            [TrafficState(1e-3, 0.0)] * 2, _empty("-x" * (CELLS // 2), "-x" * (CELLS // 2)), 1.0)


@pytest.mark.xfail(strict=True, reason="a cell below VACUUM_RHO moves at w = v_ref (ROADMAP item 6)")
@hypothesis.settings(max_examples=25, deadline=None)
@hypothesis.given(sparse_junction())
@hypothesis.example(STANDING)
def test_cells_above_the_threshold_keep_w_within_the_data(case):
    net, bounds = run(*case)
    if bounds is None:  # no cell held traffic
        return
    lo, hi = bounds
    for rid, r in net.roads.items():
        kept = r.rho >= fd.VACUUM_RHO
        w = r.y[kept] / r.rho[kept]
        assert np.all(lo * (1.0 - RTOL) <= w) and np.all(w <= hi * (1.0 + RTOL)), rid
