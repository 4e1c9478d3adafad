"""The scalar contract of the fundamental-diagram and junction kernels.

Called with Python floats, each kernel returns a Python float (or bool) and
performs the same operations in the same order as its numpy path: the result
equals, bit for bit, that of the same call with ``np.float64`` arguments and
with 0-d arrays. Both take numpy's arithmetic. ``np.float64`` takes the
``np.maximum`` clamp of ``modified_density``; 0-d arrays take the array forms
of ``_pressure`` (``np.divide``, in-place power) and of the demand and the
supply (``np.where``).
"""

import dataclasses

import numpy as np
import pytest

from arznet import fundamental as fd
from arznet import junction as jc
from arznet import oracle
from arznet.fundamental import RoadParams, TrafficState
from arznet.junction import JunctionFluxes
from shared_strategies import gamma_params, hypothesis, instance, st


def densities(p: RoadParams):
    """Vacuum, near vacuum, jam density, and densities up to half again beyond it."""
    return st.one_of(st.sampled_from([0.0, p.rho_max]), st.floats(0.0, 1e-9),
                     st.floats(0.0, 1.5 * p.rho_max))


def speeds(p: RoadParams):
    return st.one_of(st.just(0.0), st.floats(0.0, 1.2 * p.v_ref))


def same_bits(got, want):
    """``got`` is a Python float (bool) whose bits equal those of ``want``."""
    if isinstance(want, (bool, np.bool_)):
        assert type(got) is bool and got == bool(want)
        return
    assert type(got) is float, type(got)
    assert got.hex() == float(want).hex(), (got, want)


def check(kernel, *args):
    """``kernel(*args)`` on floats against the same call on np.float64 and on 0-d arrays."""
    got = kernel(*args)
    for conv in (np.float64, np.asarray):
        same_bits(got, kernel(*(conv(a) if isinstance(a, float) else a for a in args)))
    return got


@st.composite
def road_rho_c(draw):
    p = draw(gamma_params)
    return p, draw(densities(p)), draw(st.one_of(st.just(0.0), st.floats(0.0, 2.0 * p.v_ref)))


@hypothesis.settings(max_examples=400, deadline=None)
@hypothesis.given(road_rho_c())
def test_fundamental_kernels(case):
    p, rho, c = case
    check(fd._pressure, p, rho)
    check(fd.pressure_inv, p, c)
    check(fd.sonic_point, p, c)
    check(fd.capacity, p, c)
    check(fd.demand, p, rho, c)
    check(fd.supply, p, rho, c)
    check(fd.lambda1, p, rho, c)


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(gamma_params, st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)))
def test_equilibrium_density(p, fraction):
    # fraction 1 is the capacity, where the discriminant may round below 0
    rho = check(fd.equilibrium_density, p, fraction * (p.v_ref * p.rho_max / 4.0))
    assert 0.0 <= rho <= 0.5 * p.rho_max


@st.composite
def one_to_one_edge(draw):
    """Road, left density and attribute, and right speed; the speed may exceed the attribute."""
    p = draw(gamma_params)
    rho = draw(densities(p))
    w = fd._pressure(p, rho) + draw(speeds(p))
    return p, rho, w, draw(speeds(p))


@hypothesis.settings(max_examples=400, deadline=None)
@hypothesis.given(one_to_one_edge())
def test_junction_kernels(case):
    p, rho, w, v = case
    rho_t = check(jc.modified_density, p, w, v)
    if w < v:
        assert rho_t == 0.0
    p_rho = fd._pressure(p, rho)
    check(lambda *a: jc.demand_supply(*a)[0], p, rho, p_rho, w, v)
    check(lambda *a: jc.demand_supply(*a)[1], p, rho, p_rho, w, v)


@st.composite
def cross_road_edge(draw):
    """An outgoing road and its speed, and the attribute of a state on another road."""
    left = draw(gamma_params)
    w = fd._pressure(left, draw(densities(left))) + draw(speeds(left))
    right = draw(gamma_params)
    return right, draw(speeds(right)), w


@hypothesis.settings(max_examples=400, deadline=None)
@hypothesis.given(cross_road_edge())
def test_cross_road_supply(case):
    p, v, w = case
    check(lambda *a: jc._supply_for(*a)[0], p, v, w)
    check(lambda *a: jc._supply_for(*a)[1], p, v, w)


@st.composite
def merge_and_fluxes(draw):
    branches = []
    for _ in range(3):
        p = draw(gamma_params)
        branches.append((p, TrafficState(draw(densities(p)), draw(speeds(p)))))
    q1, q2 = draw(st.floats(0.0, 1e4)), draw(st.floats(0.0, 1e4))
    return branches, q1, q2


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(merge_and_fluxes())
def test_oracle_point_checks(case):
    branches, q1, q2 = case
    ctx = oracle.MergeContext(*branches)
    ctx64 = oracle.MergeContext(*((p, TrafficState(np.float64(s.rho), np.float64(s.v)))
                                  for p, s in branches))
    same_bits(ctx.delta1, ctx64.delta1)
    same_bits(ctx.delta2, ctx64.delta2)
    check(oracle.supply_at, ctx, q1, q2)
    check(oracle.supply_at, ctx, 0.0, 0.0)
    check(oracle.feasible, ctx, q1, q2)


@pytest.mark.parametrize("gamma", [0.5, 1.0, 2.0, 3.0])
def test_nan_propagates(gamma):
    p = RoadParams(200.0, 100.0, gamma)
    nan = float("nan")
    for kernel, args in [(fd._pressure, (p, nan)), (fd.demand, (p, 30.0, nan)),
                         (fd.supply, (p, nan, 80.0)), (fd.supply, (p, 30.0, nan)),
                         (jc.modified_density, (p, nan, 50.0)),
                         (jc.modified_density, (p, 80.0, nan))]:
        assert np.isnan(check(kernel, *args))


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(instance())
def test_solver_results_are_plain_floats(case):
    spec, states = case
    sol = jc.solve(spec, states)
    fl = jc.junction_fluxes(spec, states)
    for res in (sol, fl):
        for f in dataclasses.fields(JunctionFluxes):
            value = getattr(res, f.name)
            if f.name == "case" or value is None:
                continue
            for x in value if isinstance(value, tuple) else (value,):
                assert type(x) is float, (f.name, type(x))
    for b in sol.boundary_in + sol.boundary_out:
        assert type(b.rho) is float and type(b.v) is float
