"""Boundary traces: the roots of rho (w - p(rho)) = q that ``reconstruct_boundary_state`` finds.

With its bound inactive, an incoming trace is the congested root in
[sigma, p^-1(w)] and an outgoing trace the free-flow root in [0, sigma], both
found by a monotone Newton iteration. Fluxes run from vacuum to capacity,
within 1e-15 of it, and the exponents include 0.5, 1, 2 and 3, where the
power function takes special paths.
"""

import math
from unittest import mock

import pytest

from arznet import fundamental as fd
from arznet import junction as jc
from arznet import rootfind
from arznet.fundamental import RoadParams, TrafficState
from shared_strategies import gamma_params, hypothesis, st

# Newton from the end of a concave flux halves its distance to a double root
# per step: about 25 evaluations for q at capacity, 5-10 below it
MAX_EVALS = 30

# fractions of the capacity: vacuum, near vacuum, anywhere, 1 - 10^-k, capacity
fractions = st.one_of(
    st.sampled_from([0.0, 1e-12, 1.0]),
    st.floats(0.0, 1.0),
    st.integers(1, 15).map(lambda k: 1.0 - 10.0 ** -k),
)


@st.composite
def trace_problems(draw):
    p = draw(gamma_params)
    w = draw(st.floats(0.0, 2.0 * p.v_ref, exclude_min=True, allow_subnormal=False))
    return p, w, draw(fractions) * fd.capacity(p, w)


def reconstruct(p, w, q, side):
    """The trace with its bound inactive, and the flux evaluations it took."""
    evals = []

    def counting(fdf, *args):
        def counted(x):
            evals.append(x)
            return fdf(x)
        return rootfind.newton(counted, *args)

    with mock.patch.object(jc, "newton", counting):
        s = jc.reconstruct_boundary_state(p, w, q, side == "incoming", TrafficState(0.0, 0.0),
                                          False, fd.sonic_point(p, w), fd.capacity(p, w))
    return s, len(evals)


def quadratic_root(p, w, q, side):
    """Closed-form root at gamma = 1: (v_ref/rho_max) rho^2 - w rho + q = 0."""
    a = p.v_ref / p.rho_max
    sq = math.sqrt(max(w * w - 4.0 * a * q, 0.0))
    # the free-flow root in its cancellation-free form
    return (w + sq) / (2.0 * a) if side == "incoming" else 2.0 * q / (w + sq)


@hypothesis.settings(max_examples=500, deadline=None)
@hypothesis.given(trace_problems(), st.sampled_from(["incoming", "outgoing"]))
def test_trace_is_the_root_on_its_branch(problem, side):
    p, w, q = problem
    s, evals = reconstruct(p, w, q, side)
    sigma = fd.sonic_point(p, w)
    cap = fd.capacity(p, w)
    if side == "incoming":
        assert sigma <= s.rho <= fd.pressure_inv(p, w)
    else:
        assert 0.0 <= s.rho <= sigma
    residual = s.rho * (w - fd.pressure(p, s.rho)) - min(q, cap)
    assert abs(residual) <= 1e-13 * max(1.0, cap)
    assert s.v == max(w - fd.pressure(p, s.rho), 0.0)
    assert evals <= MAX_EVALS
    # below a capacity of 1 veh/h the stopping residual is absolute, 1e-13 veh/h,
    # and a root of w ~ 1e-27 km/h is not resolved relatively
    if p.gamma == 1.0 and q <= (1.0 - 1e-6) * cap and cap >= 1.0:
        assert s.rho == pytest.approx(quadratic_root(p, w, q, side), rel=1e-12, abs=0.0)


@pytest.mark.parametrize("side", ["incoming", "outgoing"])
def test_trace_at_zero_attribute_is_vacuum(side):
    s, _ = reconstruct(RoadParams(100.0, 80.0, 2.0), 0.0, 0.0, side)
    assert (s.rho, s.v) == (0.0, 0.0)


def test_trace_flux_above_capacity_is_infeasible():
    p = RoadParams(100.0, 80.0, 2.0)
    with pytest.raises(jc.InfeasibleFlux):
        reconstruct(p, 60.0, 1.01 * fd.capacity(p, 60.0), "incoming")
