"""The merge's clamped fixed point x = clamp(Sigma3(x) - fixed) on [floor, cap].

``junction._clamped_fixed_point`` closes the merge cases E2, E3, H1b and
H2a-c and their mirrors. Inside the bracket it finds the root of
h(x) = Sigma3(x) - fixed - x by the Anderson-Bjorck regula falsi, reusing
h at the two ends from its clamp tests. Every call is checked against its
defining equation; the ratio-parameterised supply switches branch at p_hat,
and brackets across that kink are counted. At gamma3 = 1 the congested
branch is linear in the ratio and the fixed point is a quadratic root.
"""

import math
import statistics
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest

from arznet import junction as jc
from arznet.fundamental import RoadParams, TrafficState
from arznet.junction import JunctionKind, JunctionSpec
from shared_strategies import gammas, hypothesis, priorities, st

# _sigma3 evaluations per call, the two ends included, in the ranges of criterion 10
MAX_EVALS = 15
# With a fixed flux near 0 the ratio, and with it h, jumps within that flux of
# x = 0 (at 0 it is the fallback ratio). Against such a step the iteration
# halves the bracket, as bisection does, until the step is behind it: about
# log2(1e13) ~ 43 halvings from the bracket down to the tolerance, and the ends.
MAX_EVALS_NEAR_VACUUM = 50


@contextmanager
def fixed_points():
    """Record (arguments, result, _sigma3 evaluations) of every ``_clamped_fixed_point`` call."""
    calls = []
    solve, sigma3 = jc._clamped_fixed_point, jc._sigma3
    evals = [0]

    def counted_sigma3(*args):
        evals[0] += 1
        return sigma3(*args)

    def spy(*args):
        evals[0] = 0
        x = solve(*args)
        calls.append((args, x, evals[0]))
        return x

    with mock.patch.object(jc, "_sigma3", counted_sigma3), \
            mock.patch.object(jc, "_clamped_fixed_point", spy):
        yield calls


def interior(calls):
    """The calls whose fixed point lies strictly inside [floor, cap]."""
    return [c for c in calls if c[1] not in (max(c[0][3], 0.0), c[0][4])]


def ratio(args, x):
    """The flux ratio q1 / (q1 + q2) at the free coordinate x, as ``_sigma3`` takes it."""
    _, fixed, fixed_is_q1, _, _, p_default, _ = args
    if fixed + x == 0.0:
        return p_default
    return fixed / (fixed + x) if fixed_is_q1 else x / (x + fixed)


def check_fixed_point(args, x):
    """x = min(cap, max(floor, Sigma3(x) - fixed)) within the solver's tolerance."""
    geom, fixed, fixed_is_q1, floor, cap, p_default, tol = args
    q1, q2 = (fixed, x) if fixed_is_q1 else (x, fixed)
    s3 = jc._sigma3(geom, q1, q2, p_default)
    assert abs(min(cap, max(floor, 0.0, s3 - fixed)) - x) <= tol


def straddles_p_hat(args):
    geom, _, _, floor, cap, _, _ = args
    ends = ratio(args, max(floor, 0.0)), ratio(args, cap)
    return geom.p_hat is not None and min(ends) < geom.p_hat < max(ends)


def quadratic_total_flux(args):
    """Closed form at gamma3 = 1 on the congested branch, where Sigma~ is linear in w.

    With the total flux s = fixed + x and Sigma~ = k (w2 + p dw - v3), the fixed
    point solves s^2 - b s - c = 0; h(floor) > 0 > h(cap) selects the larger
    root, taken here in its cancellation-free form.
    """
    geom, fixed, fixed_is_q1, _, _, _, _ = args
    k, delta, _ = geom.cong
    b = k * (geom.w2 + delta) + (0.0 if fixed_is_q1 else k * geom.dw)
    c = k * geom.dw * (fixed if fixed_is_q1 else -fixed)
    r = math.sqrt(b * b + 4.0 * c)
    return (b + r) / 2.0 if b >= 0.0 else 2.0 * c / (r - b)


def merge(roads, states, priority):
    """The merge through ``junction_fluxes`` and ``solve``, whose fluxes agree.

    Both entry points check every flux against its capacity, and each makes
    the merge's fixed-point call, if any, once: a recorded call comes in pairs.
    """
    spec = JunctionSpec(JunctionKind.MERGE, tuple(roads[:2]), (roads[2],), priority=priority)
    fl = jc.junction_fluxes(spec, states)
    assert jc.solve(spec, states).q_in == fl.q_in
    return fl


@st.composite
def merges(draw, gamma3=gammas):
    roads = [draw(st.builds(RoadParams, st.floats(20.0, 300.0), st.floats(40.0, 160.0), g))
             for g in (st.floats(0.5, 4.0), st.floats(0.5, 4.0), gamma3)]
    # vacuum to 0.98 of jam density, standing to free-flow speed
    states = [TrafficState(draw(st.floats(0.0, 0.98)) * p.rho_max,
                           draw(st.floats(0.0, 1.0)) * p.v_ref) for p in roads]
    return roads, states, draw(priorities)


@hypothesis.settings(max_examples=400, deadline=None)
@hypothesis.given(merges())
def test_every_fixed_point_solves_its_equation(instance):
    with fixed_points() as calls:
        merge(*instance)
    for args, x, evals in calls:
        check_fixed_point(args, x)
        assert evals <= MAX_EVALS_NEAR_VACUUM
    for args, _, _ in interior(calls):
        hypothesis.event("interior fixed point")
        if straddles_p_hat(args):
            hypothesis.event("bracket straddles p_hat")


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(merges(gamma3=st.just(1.0)))
def test_fixed_point_at_unit_exponent_is_the_quadratic_root(instance):
    with fixed_points() as calls:
        merge(*instance)
    for args, x, _ in interior(calls):
        geom = args[0]
        if geom.w_at(ratio(args, x)) > geom.w_split:
            hypothesis.event("congested interior fixed point")
            fixed = args[1]
            s = quadratic_total_flux(args)
            # below 1 veh/h the stopping residual, at least 1e-13 veh/h, is not relative
            if s >= 1.0:
                assert fixed + x == pytest.approx(s, rel=1e-12, abs=0.0)
            # x = s - fixed cancels where x << fixed, in the reference as in the solver
            if x >= max(1.0, 1e-3 * fixed):
                assert x == pytest.approx(s - fixed, rel=1e-12, abs=0.0)


def test_criterion_10_merges_take_few_evaluations():
    """3000 random merges in the ranges of acceptance criterion 10."""
    rng = np.random.default_rng(20246)
    with fixed_points() as calls:
        for _ in range(3000):
            roads = [RoadParams(rng.uniform(20, 300), rng.uniform(40, 160), rng.uniform(0.5, 4.0))
                     for _ in range(3)]
            states = [TrafficState(rng.uniform(1e-3, 0.98 * p.rho_max), rng.uniform(0.5, p.v_ref))
                      for p in roads]
            merge(roads, states, float(rng.uniform(0.05, 0.95)))
    for args, x, evals in calls:
        check_fixed_point(args, x)
        assert evals <= MAX_EVALS
    inside = interior(calls)
    # bisection took about 43 evaluations per interior fixed point; two calls per merge
    assert len(inside) > 2 * 500
    assert statistics.median(evals for _, _, evals in inside) <= 8
    # the branch switch at p_hat lies inside some brackets; they converge as fast
    straddling = [evals for args, _, evals in inside if straddles_p_hat(args)]
    assert len(straddling) > 2 * 20
    assert max(straddling) <= MAX_EVALS
