"""The junction solvers pinned to outputs recorded before their scalar paths left numpy.

``tests/data/golden_solve.json`` holds seeded random 1-to-1, diverge and merge
instances in the ranges of acceptance criterion 10 (road parameters, states,
assignment rates or priority), each with what ``solve`` returned for it:
fluxes, attributes, the merge ratio and case tag, and the boundary traces.
``record()`` wrote it with the solvers of commit 4d446ce, which evaluated
every scalar through numpy. Merges were kept two per case tag, in draw order,
so that the mirrored and the attribute-gap cases are all represented.

Numbers are compared at a relative 1e-12, not byte for byte, because the
power function of the C library may round differently on another host.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from arznet import junction as jc
from arznet.fundamental import RoadParams, TrafficState
from arznet.junction import JunctionKind, JunctionSpec

FIXTURE = Path(__file__).parent / "data" / "golden_solve.json"
RTOL = 1e-12
SEED = 20170
PER_KIND = 20
MERGE_DRAWS = 2000
PER_CASE = 2
NUMERIC = ("q_in", "q_out", "w_in", "w_out", "ratio")


def _draw(rng, kind):
    """Plain numbers of one random instance: road parameters, states, alphas, priority."""
    m = {JunctionKind.ONE_TO_ONE: 1, JunctionKind.DIVERGE: int(rng.integers(2, 4)),
         JunctionKind.MERGE: 1}[kind]
    n = 2 if kind is JunctionKind.MERGE else 1
    roads = [[float(rng.uniform(20, 300)), float(rng.uniform(40, 160)), float(rng.uniform(0.5, 4.0))]
             for _ in range(n + m)]
    states = [[float(rng.uniform(1e-3, 0.98 * r[0])), float(rng.uniform(0.5, r[1]))] for r in roads]
    alphas = priority = None
    if kind is JunctionKind.DIVERGE:
        raw = rng.dirichlet(np.full(m, 2.0))
        alphas = [float(a) for a in raw[:-1]] + [float(1.0 - raw[:-1].sum())]
    elif kind is JunctionKind.MERGE:
        priority = float(rng.uniform(0.05, 0.95))
    return {"kind": kind.value, "roads": roads, "states": states,
            "alphas": alphas, "priority": priority}


def _spec_states(inst):
    kind = JunctionKind(inst["kind"])
    roads = [RoadParams(*r) for r in inst["roads"]]
    n = 2 if kind is JunctionKind.MERGE else 1
    alphas = None if inst["alphas"] is None else tuple(inst["alphas"])
    spec = JunctionSpec(kind, tuple(roads[:n]), tuple(roads[n:]),
                        alphas=alphas, priority=inst["priority"])
    return spec, [TrafficState(*s) for s in inst["states"]]


def _solution(inst) -> dict:
    sol = jc.solve(*_spec_states(inst))
    out = {name: getattr(sol, name) for name in NUMERIC}
    out["case"] = sol.case
    out["boundary_in"] = [[b.rho, b.v] for b in sol.boundary_in]
    out["boundary_out"] = [[b.rho, b.v] for b in sol.boundary_out]
    return out


def record(path=FIXTURE) -> None:
    """Draw the instances and write them with the solutions of the solvers as they stand."""
    rng = np.random.default_rng(SEED)
    instances = [_draw(rng, kind) for kind in (JunctionKind.ONE_TO_ONE, JunctionKind.DIVERGE)
                 for _ in range(PER_KIND)]
    per_case: dict[str, int] = {}
    for _ in range(MERGE_DRAWS):
        inst = _draw(rng, JunctionKind.MERGE)
        case = jc.solve(*_spec_states(inst)).case
        if per_case.get(case, 0) < PER_CASE:
            per_case[case] = per_case.get(case, 0) + 1
            instances.append(inst)
    for inst in instances:
        inst["solution"] = _solution(inst)
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    Path(path).write_text(json.dumps(instances, indent=1) + "\n")


INSTANCES = json.loads(FIXTURE.read_text()) if FIXTURE.exists() else []


def test_fixture_covers_every_kind():
    kinds = {inst["kind"] for inst in INSTANCES}
    assert kinds == {kind.value for kind in JunctionKind}
    assert len({inst["solution"]["case"] for inst in INSTANCES}) >= 8


@pytest.mark.parametrize("inst", INSTANCES, ids=lambda inst: inst["kind"])
def test_solve_matches_recorded(inst):
    want = inst["solution"]
    got = _solution(inst)
    assert got["case"] == want["case"]
    for name in ("q_in", "q_out", "w_in", "w_out", "boundary_in", "boundary_out"):
        np.testing.assert_allclose(got[name], want[name], rtol=RTOL, atol=0, err_msg=name)
    if want["ratio"] is None:
        assert got["ratio"] is None
    else:
        np.testing.assert_allclose(got["ratio"], want["ratio"], rtol=RTOL, atol=0)
