"""The junction solvers pinned to recorded outputs and to the exact roots of their traces.

``tests/data/golden_solve.json`` holds seeded random 1-to-1, diverge and merge
instances in the ranges of acceptance criterion 10 (road parameters, states,
assignment rates or priority), each with what ``solve`` returned for it:
fluxes, attributes, the merge ratio and case tag, and the boundary traces.
``record()`` first wrote it with the solvers of commit 4d446ce, which
evaluated every scalar through numpy. Merges were kept two per case tag, in
draw order, so that the mirrored and the attribute-gap cases are all
represented.

Nothing is pinned to wherever an iteration happened to stop inside its
tolerance band. Where a merge reaches an interior clamped fixed point (cases
E2, E3, H1b, H2a-c and mirrors), ``record()`` replaces it by the root of its
equation computed at 50 digits with mpmath and rounded, and lets ``solve``
derive the fluxes, the mixed attribute, the ratio and the traces from it. A
trace the solver root-finds (its bound inactive) is pinned to the exact root
of rho (w - p(rho)) = q on its branch, computed the same way, with
v = max(w - p(rho), 0). Everything else (attributes, case tags, the traces
of active bounds, the fluxes of the other instances) is as ``solve`` returns
it.
Regenerate the file with::

    PYTHONPATH=src python tests/test_golden_solve.py

which needs mpmath (the ``test`` extra); the tests only read the JSON.

Numbers are compared at a relative 1e-12, not byte for byte, because the
power function of the C library may round differently on another host.
"""

import json
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from arznet import fundamental as fd
from arznet import junction as jc
from arznet.fundamental import RoadParams, TrafficState
from arznet.junction import JunctionKind, JunctionSpec

FIXTURE = Path(__file__).parent / "data" / "golden_solve.json"
RTOL = 1e-12
SEED = 20170
DIGITS = 50
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


def _exact_trace(p: RoadParams, w: float, q: float, incoming: bool) -> list[float]:
    """Root of rho (w - p(rho)) = q on the branch of its side, at DIGITS digits, as floats.

    The incoming side takes the congested root in [sigma, p^-1(w)], the
    outgoing side the free-flow root in [0, sigma]; q is capped at the
    capacity as the solver caps it, and a q above the exact capacity gives sigma.
    """
    import mpmath  # only the recorder needs it

    q = min(q, fd.capacity(p, w))
    with mpmath.workdps(DIGITS):
        rho_max, v_ref, gamma, w, q = map(mpmath.mpf, (p.rho_max, p.v_ref, p.gamma, w, q))

        def pressure(rho):
            return v_ref / gamma * (rho / rho_max) ** gamma

        sigma = rho_max * (w * gamma / (v_ref * (1 + gamma))) ** (1 / gamma)
        rho_jam = rho_max * (gamma * w / v_ref) ** (1 / gamma)
        increasing = not incoming
        lo, hi = (mpmath.mpf(0), sigma) if increasing else (sigma, rho_jam)
        for _ in range(4 * DIGITS):  # 2^-200 of the bracket
            mid = (lo + hi) / 2
            if (mid * (w - pressure(mid)) < q) == increasing:
                lo = mid
            else:
                hi = mid
        rho = (lo + hi) / 2
        return [float(rho), float(max(w - pressure(rho), 0))]


_SOLVER_FIXED_POINT = jc._clamped_fixed_point


def _exact_fixed_point(geom, fixed, fixed_is_q1, floor, cap, p_default, tol) -> float:
    """The merge's clamped fixed point, with an interior one at DIGITS digits, as a float.

    Where the solver clamps to an end of [floor, cap], that end is kept.
    Otherwise this is the root of Sigma3(x) - fixed - x on the bracket, for
    the float data the solver passes in: the supply geometry, the fixed
    flux, the ends and the fallback ratio.
    """
    import mpmath  # only the recorder needs it

    x = _SOLVER_FIXED_POINT(geom, fixed, fixed_is_q1, floor, cap, p_default, tol)
    if x in (max(floor, 0.0), cap):
        return x
    with mpmath.workdps(DIGITS):
        w2, dw, w_split, fixed = map(mpmath.mpf, (geom.w2, geom.dw, geom.w_split, fixed))

        def h(x):
            q1, q2 = (fixed, x) if fixed_is_q1 else (x, fixed)
            w = w2 + q1 / (q1 + q2) * dw
            k, delta, g = map(mpmath.mpf, geom.free if w <= w_split else geom.cong)
            return k * max(w + delta, 0) ** g - fixed - x

        lo, hi = mpmath.mpf(max(floor, 0.0)), mpmath.mpf(cap)
        positive_lo = h(lo) > 0
        for _ in range(4 * DIGITS):  # 2^-200 of the bracket
            mid = (lo + hi) / 2
            if (h(mid) > 0) == positive_lo:
                lo = mid
            else:
                hi = mid
        return float((lo + hi) / 2)


def _recorded(inst) -> dict:
    """``_solution`` at the exact merge fixed points, with every root-found trace exact."""
    with mock.patch.object(jc, "_clamped_fixed_point", _exact_fixed_point), \
            mock.patch.object(jc, "reconstruct_boundary_state",
                              wraps=jc.reconstruct_boundary_state) as spy:
        out = _solution(inst)
    # _with_traces reconstructs the incoming traces first, each with its bound flag;
    # a trace not built through the spied name would be recorded as the solver found it
    traces = out["boundary_in"] + out["boundary_out"]
    assert len(spy.call_args_list) == len(traces)
    for i, call in enumerate(spy.call_args_list):
        p, w, q, incoming, _, bound_active, _, _ = call.args
        if not bound_active:
            traces[i] = _exact_trace(p, w, q, incoming)
    n = len(out["boundary_in"])
    out["boundary_in"], out["boundary_out"] = traces[:n], traces[n:]
    return out


def record(path=FIXTURE) -> None:
    """Draw the instances and write them with their solutions at exact fixed points and roots."""
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
        inst["solution"] = _recorded(inst)
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    Path(path).write_text(json.dumps(instances, indent=1) + "\n")


INSTANCES = json.loads(FIXTURE.read_text()) if FIXTURE.exists() else []


def test_fixture_covers_every_kind():
    kinds = {inst["kind"] for inst in INSTANCES}
    assert kinds == {kind.value for kind in JunctionKind}
    assert len({inst["solution"]["case"] for inst in INSTANCES}) >= 8


def _assert_matches(got, want):
    assert got["case"] == want["case"]
    for name in ("q_in", "q_out", "w_in", "w_out", "boundary_in", "boundary_out"):
        np.testing.assert_allclose(got[name], want[name], rtol=RTOL, atol=0, err_msg=name)
    if want["ratio"] is None:
        assert got["ratio"] is None
    else:
        np.testing.assert_allclose(got["ratio"], want["ratio"], rtol=RTOL, atol=0)


@pytest.mark.parametrize("inst", INSTANCES, ids=lambda inst: inst["kind"])
def test_solve_matches_recorded(inst):
    _assert_matches(_solution(inst), inst["solution"])


def test_recorder_reproduces_fixture():
    """``record()``'s exact fixed points and traces still give the committed solutions."""
    pytest.importorskip("mpmath")
    for inst in INSTANCES:
        _assert_matches(_recorded(inst), inst["solution"])


if __name__ == "__main__":
    record()
