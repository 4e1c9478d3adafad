"""Junction road ends on random networks: the order of the junctions does not matter.

Each network is a chain of two or three junctions along main roads m0, m1, ...;
junction k joins m_k to m_k+1 as a 1-to-1 junction, a diverge or a merge, with
side roads for the other branches. Every inner main road has a junction at
both ends, so the simulator reports two fluxes for it.
"""

import dataclasses
import math

import numpy as np
import pytest

from arznet import fundamental as fd
from arznet import sim
from arznet.fundamental import RoadParams
from arznet.junction import JunctionKind, JunctionSpec

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

CFG = sim.SimConfig(t_end=0.003, output_stride=3, steady_tol=0.0)


@st.composite
def roads(draw, rid):
    params = RoadParams(draw(st.floats(50.0, 250.0)), draw(st.floats(60.0, 140.0)),
                        draw(st.floats(0.5, 4.0)))
    state = fd.equilibrium_state(params, draw(st.floats(0.05, 0.95)) * params.rho_max)
    return sim.road_from_state(rid, params, 0.3, draw(st.integers(3, 6)), state)


@st.composite
def networks(draw):
    """A random junction chain and a permutation of its junctions."""
    n = draw(st.integers(2, 3))
    road_list = [draw(roads(f"m{k}")) for k in range(n + 1)]
    junctions = []
    for k in range(n):
        main_in, main_out = f"m{k}", f"m{k + 1}"
        kind = draw(st.sampled_from(JunctionKind))
        n_side = {JunctionKind.ONE_TO_ONE: 0, JunctionKind.MERGE: 1,
                  JunctionKind.DIVERGE: draw(st.integers(1, 2))}[kind]
        side = [f"s{k}_{i}" for i in range(n_side)]
        road_list += [draw(roads(rid)) for rid in side]
        alphas = priority = None
        if kind is JunctionKind.MERGE:
            in_ids, out_ids = draw(st.permutations([main_in, *side])), [main_out]
            priority = draw(st.floats(0.05, 0.95))
        else:
            in_ids, out_ids = [main_in], draw(st.permutations([main_out, *side]))
        if kind is JunctionKind.DIVERGE:
            weights = [draw(st.floats(0.2, 1.0)) for _ in out_ids]
            alphas = tuple(w / math.fsum(weights) for w in weights[:-1])
            alphas += (1.0 - math.fsum(alphas),)
        by_id = {r.road_id: r.params for r in road_list}
        spec = JunctionSpec(kind, tuple(by_id[r] for r in in_ids),
                            tuple(by_id[r] for r in out_ids), alphas, priority)
        junctions.append(sim.NetworkJunction(spec, tuple(in_ids), tuple(out_ids)))
    return {r.road_id: r for r in road_list}, junctions, draw(st.permutations(range(n)))


def _copy(roads_by_id):
    return {rid: dataclasses.replace(r, rho=r.rho.copy(), y=r.y.copy())
            for rid, r in roads_by_id.items()}


@hypothesis.settings(max_examples=60, deadline=None)
@hypothesis.given(networks())
def test_junction_order_does_not_change_the_run(case):
    roads_by_id, junctions, order = case
    res = sim.run(sim.Network(_copy(roads_by_id), junctions), CFG)
    perm = sim.run(sim.Network(_copy(roads_by_id), [junctions[k] for k in order]), CFG)

    ends = [(r, -1) for nj in junctions for r in nj.in_ids]
    ends += [(r, 0) for nj in junctions for r in nj.out_ids]
    assert sorted(res.flux_series) == sorted(ends)
    assert [rid for rid, _ in res.flux_series].count("m1") == 2
    assert res.flux_series.keys() == perm.flux_series.keys()
    for end, arr in res.flux_series.items():
        assert np.array_equal(perm.flux_series[end], arr), end
    for rid in roads_by_id:
        assert np.array_equal(perm.final_rho[rid], res.final_rho[rid]), rid
        assert np.array_equal(perm.final_v[rid], res.final_v[rid]), rid
    assert perm.ledger == res.ledger and perm.steps == res.steps

    # in every row, each junction's in-ends balance its out-ends
    for nj in junctions:
        q_in = [res.flux_series[r, -1] for r in nj.in_ids]
        q_out = [res.flux_series[r, 0] for r in nj.out_ids]
        for row in range(len(res.times)):
            mass_in = math.fsum(a[row, 0] for a in q_in)
            assert mass_in == math.fsum(a[row, 0] for a in q_out)
            mom_in = math.fsum(a[row, 0] * a[row, 1] for a in q_in)
            mom_out = math.fsum(a[row, 0] * a[row, 1] for a in q_out)
            assert mom_out == pytest.approx(mom_in, rel=1e-12, abs=1e-9)


def test_end_labels_reject_a_collision():
    """A road named b[0] would share its label with the left end of a road b that has
    a junction at each end, and fluxes.csv would mix the two series."""
    assert sim.end_labels([("b", 0), ("b", -1), ("c", 0)]) == ["b[0]", "b[-1]", "c"]
    with pytest.raises(ValueError, match="share a label"):
        sim.end_labels([("b", 0), ("b", -1), ("b[0]", 0)])
