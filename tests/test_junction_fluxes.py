"""The flux-only junction path against the full solver with boundary traces."""

import dataclasses

import pytest

from arznet import fundamental as fd
from arznet import junction as jc
from arznet.fundamental import RoadParams, TrafficState
from arznet.junction import JunctionFluxes, JunctionKind, JunctionSpec
from shared import ROAD_IN, ROAD_OUT
from shared_strategies import hypothesis, instance

FLUX_FIELDS = [f.name for f in dataclasses.fields(JunctionFluxes)]


@hypothesis.settings(max_examples=600, deadline=None)
@hypothesis.given(instance())
def test_fluxes_equal_solve_exactly(case):
    spec, states = case
    fl = jc.junction_fluxes(spec, states)
    sol = jc.solve(spec, states)
    for name in FLUX_FIELDS:
        assert getattr(fl, name) == getattr(sol, name), name


def _roads_and_states():
    a, b, c = ROAD_IN, ROAD_OUT, RoadParams(120.0, 80.0, 2.0)
    states = {a: TrafficState(30.0, 60.0), b: TrafficState(10.0, 70.0), c: TrafficState(0.0, 0.0)}
    return a, b, c, states


def _spec(kind, a, b, c):
    return {
        "one_to_one": JunctionSpec(JunctionKind.ONE_TO_ONE, (a,), (b,)),
        "diverge": JunctionSpec(JunctionKind.DIVERGE, (a,), (b, c, a), alphas=(0.2, 0.3, 0.5)),
        "merge": JunctionSpec(JunctionKind.MERGE, (a, c), (b,), priority=0.4),
    }[kind]


GUARD_CASES = [(kind, i) for kind, n in (("one_to_one", 2), ("diverge", 4), ("merge", 3))
               for i in range(n)]


def _raising(kernel, i, roads, excess, over):
    """``kernel`` with branch i's flux raised to ``excess`` times its capacity, appended to ``over``."""
    def raised(*args):
        fl, bounds, sigmas = kernel(*args)
        q_in, q_out, w_in, w_out, *rest = fl  # the fields of JunctionFluxes
        q, w = list(q_in + q_out), w_in + w_out
        q[i] = excess * fd.capacity(roads[i], w[i])
        n = len(q_in)
        over.append((tuple(q[:n]), tuple(q[n:]), w_in, w_out, *rest))
        return over[-1], bounds, sigmas
    return raised


@pytest.mark.parametrize("excess, raises", [(1.01, True), (1.0 + 1e-7, False)])
def test_capacity_guard(monkeypatch, excess, raises):
    """A flux beyond capacity plus the relative slack raises on both paths; noise does not.

    For each branch of a 1-to-1 junction, a 1-to-3 diverge and a merge, the
    real kernel runs and only that branch's flux is raised to ``excess`` times
    the closed-form capacity along its attribute.
    """
    a, b, c, state = _roads_and_states()
    # every attribute positive: a zero capacity admits no flux to raise
    state[c] = TrafficState(20.0, 50.0)
    kernels = {"_merge": jc._merge, "_single_inflow": jc._single_inflow}
    escaped = []
    for kind, i in GUARD_CASES:
        spec = _spec(kind, a, b, c)
        roads = spec.incoming + spec.outgoing
        states = [state[p] for p in roads]
        name = "_merge" if kind == "merge" else "_single_inflow"
        over = []
        monkeypatch.setattr(jc, name, _raising(kernels[name], i, roads, excess, over))
        if not raises:
            assert jc.junction_fluxes(spec, states) == JunctionFluxes(*over[-1]), (kind, i)
            continue
        for run in (jc.junction_fluxes, jc.solve):
            try:
                run(spec, states)
                escaped.append((run.__name__, kind, i))
            except jc.InfeasibleFlux:
                pass
    assert escaped == []


def _counting(monkeypatch, module, name):
    """Replace ``module.name`` with a wrapper that records each call; returns the record."""
    calls = []
    func = getattr(module, name)

    def wrapper(*args):
        calls.append(args)
        return func(*args)
    monkeypatch.setattr(module, name, wrapper)
    return calls


CHECKED = ("sonic_point", "pressure_inv", "capacity", "pressure", "demand", "supply", "attribute")


@pytest.mark.parametrize("kind, n_in", [("one_to_one", 1), ("diverge", 1), ("merge", 2)])
def test_one_demand_per_incoming_road(monkeypatch, kind, n_in):
    """Each incoming road's demand is evaluated once, not once per outgoing road.

    Both paths evaluate one sonic point per branch: the flux path's capacity
    check and the full solver's traces reuse the kernel's.  The solvers go
    through the unchecked kernels: no checked public function of
    ``fundamental`` is called at all.
    """
    a, b, c, state = _roads_and_states()
    spec = _spec(kind, a, b, c)
    states = [state[p] for p in spec.incoming + spec.outgoing]
    demands = _counting(monkeypatch, fd, "_demand")
    sonic = _counting(monkeypatch, fd, "_sonic_point")
    public = {name: _counting(monkeypatch, fd, name) for name in CHECKED}
    for run in (jc.junction_fluxes, jc.solve):
        demands.clear()
        sonic.clear()
        run(spec, states)
        assert len(demands) == n_in, run.__name__
        assert [call[0] for call in demands] == [s.rho for s in states[:n_in]]
        assert len(sonic) == len(states), run.__name__
    assert public == {name: [] for name in CHECKED}


@pytest.mark.parametrize("kind", ["one_to_one", "diverge", "merge"])
def test_one_capacity_per_branch(monkeypatch, kind):
    """Each path evaluates each branch's capacity once: the kernel returns it beside the
    branch's bound, and the capacity check and the traces take it from there."""
    a, b, c, state = _roads_and_states()
    spec = _spec(kind, a, b, c)
    states = [state[p] for p in spec.incoming + spec.outgoing]
    capacities = _counting(monkeypatch, fd, "_capacity")
    for run in (lambda: jc.fluxes(spec, [s.rho for s in states], [s.v for s in states]),
                lambda: jc.solve(spec, states)):
        capacities.clear()
        run()
        assert len(capacities) == len(states)
