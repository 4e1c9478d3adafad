"""The simulator pinned to outputs recorded before its cell kernels were merged.

``tests/data/golden_network.json`` holds the flux series, the final profiles
and the ledger of ``golden_network()`` run to ``T_END``, as written by
``record()`` with the simulator of commit cd885db (a separate 1-to-1 flux at
interior edges, at external road ends and at 1-to-1 junctions). The network
has a 1-to-1 junction, a two-way diverge, a merge, external ends on both
sides and one jam, on roads with gamma = 1, 1.2, 1.5, 1.7, 2 and 3.

Numbers are compared at a relative 1e-12, not byte for byte: the scalar
(libm) and the vector (SIMD) power functions of numpy round differently in
the last place, and which one a host uses varies.

The fixture keys each series by road id, as that simulator did; it kept one
end of a road with junctions at both ends. ``RECORDED_ENDS`` names the end
behind each key. The simulator now reports both ends of roads b and c, and
the two ends the fixture lacks are pinned against the recorded ones.
"""

import json
from pathlib import Path

import numpy as np

from arznet import cli, scenario, sim
from arznet import fundamental as fd

FIXTURE = Path(__file__).parent / "data" / "golden_network.json"
T_END = 0.01  # [h]
RTOL = 1e-12
LEDGER_FIELDS = ("initial_mass", "initial_momentum", "final_mass", "final_momentum",
                 "mass_in", "mass_out", "momentum_in", "momentum_out")

# id: (rho_max, v_ref, gamma, length, cells, initial density)
ROADS = {
    "a": (200.0, 100.0, 1.0, 0.5, 20, 40.0),   # external left end
    "b": (150.0, 110.0, 2.0, 0.5, 20, 30.0),
    "c": (180.0, 100.0, 1.5, 0.5, 20, 20.0),
    "d": (120.0, 90.0, 3.0, 0.5, 20, 100.0),   # jammed; external right end
    "e": (180.0, 100.0, 1.2, 0.5, 20, 50.0),   # on-ramp; external left end
    "f": (90.0, 100.0, 1.7, 0.5, 20, 10.0),    # external right end, jam on its far half
}


# a -> b (1-to-1), b -> c, d (diverge 0.4/0.6), c + e -> f (merge, priority 0.3)
GOLDEN_DOC = {
    "roads": [{"id": rid, "rho_max": rho_max, "v_ref": v_ref, "gamma": gamma,
               "length": length, "cells": cells, "rho0": rho0}
              for rid, (rho_max, v_ref, gamma, length, cells, rho0) in ROADS.items()],
    "junctions": [
        {"kind": "one_to_one", "in": ["a"], "out": ["b"]},
        {"kind": "diverge", "in": ["b"], "out": ["c", "d"], "alphas": [0.4, 0.6]},
        {"kind": "merge", "in": ["c", "e"], "out": ["f"], "priority": 0.3},
    ],
    "sim": {"t_end": T_END, "output_stride": 5, "steady_tol": 0.0},
}
# the road end behind each key of the fixture's flux series
RECORDED_ENDS = {"a": ("a", -1), "b": ("b", -1), "c": ("c", -1),
                 "d": ("d", 0), "e": ("e", -1), "f": ("f", 0)}
ENDS = [("a", -1), ("b", 0), ("b", -1), ("c", 0), ("d", 0), ("c", -1), ("e", -1), ("f", 0)]


def golden_network(reverse=False) -> sim.Network:
    """``GOLDEN_DOC``'s network with a jam on road f's far half.

    ``reverse`` lists its junctions last first.
    """
    sc = scenario.parse(GOLDEN_DOC)
    net = scenario.build_network(sc)
    f = net.roads["f"]
    f.rho[10:], f.y[10:] = fd.to_conservative(f.params, fd.equilibrium_state(f.params, 80.0))
    return sim.Network(net.roads, net.junctions[::-1] if reverse else net.junctions)


def _run(reverse=False) -> sim.SimResult:
    return sim.run(golden_network(reverse), scenario.parse(GOLDEN_DOC).sim)


def _outputs() -> dict:
    res = _run()
    return {
        "steps": res.steps,
        "times": res.times.tolist(),
        "flux_series": {rid: res.flux_series[end].tolist() for rid, end in RECORDED_ENDS.items()},
        "final_rho": {rid: arr.tolist() for rid, arr in res.final_rho.items()},
        "final_v": {rid: arr.tolist() for rid, arr in res.final_v.items()},
        "ledger": {name: getattr(res.ledger, name) for name in LEDGER_FIELDS},
    }


def record(path=FIXTURE) -> None:
    """Write the fixture from the simulator as it stands."""
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    Path(path).write_text(json.dumps(_outputs(), indent=1) + "\n")


def test_outputs_match_recorded():
    want = json.loads(FIXTURE.read_text())
    got = _outputs()
    assert got["steps"] == want["steps"]
    np.testing.assert_allclose(got["times"], want["times"], rtol=RTOL, atol=0)
    for key in ("flux_series", "final_rho", "final_v"):
        assert got[key].keys() == want[key].keys(), key
        for rid in want[key]:
            np.testing.assert_allclose(got[key][rid], want[key][rid], rtol=RTOL, atol=0,
                                       err_msg=f"{key}[{rid}]")
    for name in LEDGER_FIELDS:
        np.testing.assert_allclose(got["ledger"][name], want["ledger"][name], rtol=RTOL,
                                   atol=0, err_msg=name)


def test_every_junction_end_is_reported_once():
    res = _run()
    assert list(res.flux_series) == ENDS
    series = res.flux_series
    # a 1-to-1 junction hands its outgoing road the incoming flux and attribute
    assert np.array_equal(series["b", 0], series["a", -1])
    # the diverge's outflows add up to its inflow; both carry the incoming attribute
    assert np.array_equal(series["c", 0][:, 0] + series["d", 0][:, 0], series["b", -1][:, 0])
    for end in (("c", 0), ("d", 0)):
        assert np.array_equal(series[end][:, 1], series["b", -1][:, 1])


def test_junction_order_does_not_change_the_run():
    res, rev = _run(), _run(reverse=True)
    assert list(rev.flux_series) == ENDS[5:] + ENDS[2:5] + ENDS[:2]
    assert res.steps == rev.steps and np.array_equal(res.times, rev.times)
    for end, arr in res.flux_series.items():
        assert np.array_equal(rev.flux_series[end], arr), end
    for rid in res.final_rho:
        assert np.array_equal(rev.final_rho[rid], res.final_rho[rid])
        assert np.array_equal(rev.final_v[rid], res.final_v[rid])
    assert rev.ledger == res.ledger


def test_simulate_names_both_ends_of_a_road(tmp_path, capsys):
    path = tmp_path / "golden.json"
    path.write_text(json.dumps(GOLDEN_DOC))
    out = tmp_path / "run"
    assert cli.main(["simulate", "--scenario", str(path), "--out", str(out)]) == 0
    labels = sim.end_labels(ENDS)
    assert labels == ["a", "b[0]", "b[-1]", "c[0]", "d", "c[-1]", "e", "f"]
    rows = (out / "fluxes.csv").read_text().splitlines()[1:]
    assert list(dict.fromkeys(row.split(",")[1] for row in rows)) == labels
    printed = [line for line in capsys.readouterr().out.splitlines()
               if line.startswith("junction flux ")]
    assert [line.split()[2].rstrip(":") for line in printed] == labels
