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
"""

import json
from pathlib import Path

import numpy as np

from arznet import fundamental as fd
from arznet import sim
from arznet.fundamental import RoadParams
from arznet.junction import JunctionKind, JunctionSpec

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


def golden_network() -> sim.Network:
    """a -> b (1-to-1), b -> c, d (diverge 0.4/0.6), c + e -> f (merge, priority 0.3)."""
    params = {rid: RoadParams(*spec[:3]) for rid, spec in ROADS.items()}
    roads = {
        rid: sim.road_from_state(rid, params[rid], length, cells,
                                 fd.equilibrium_state(params[rid], rho0))
        for rid, (_, _, _, length, cells, rho0) in ROADS.items()
    }
    rho_jam, y_jam = fd.to_conservative(params["f"], fd.equilibrium_state(params["f"], 80.0))
    roads["f"].rho[10:] = rho_jam
    roads["f"].y[10:] = y_jam
    junctions = [
        sim.NetworkJunction(JunctionSpec(JunctionKind.ONE_TO_ONE, (params["a"],), (params["b"],)),
                            ("a",), ("b",)),
        sim.NetworkJunction(JunctionSpec(JunctionKind.DIVERGE, (params["b"],),
                                         (params["c"], params["d"]), alphas=(0.4, 0.6)),
                            ("b",), ("c", "d")),
        sim.NetworkJunction(JunctionSpec(JunctionKind.MERGE, (params["c"], params["e"]),
                                         (params["f"],), priority=0.3),
                            ("c", "e"), ("f",)),
    ]
    return sim.Network(roads, junctions)


def _outputs() -> dict:
    res = sim.run(golden_network(), sim.SimConfig(t_end=T_END, output_stride=5, steady_tol=0.0))
    return {
        "steps": res.steps,
        "times": res.times.tolist(),
        "flux_series": {rid: arr.tolist() for rid, arr in res.flux_series.items()},
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
