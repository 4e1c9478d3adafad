"""The scalar root finders: convergence, and failure with diagnostics instead of a result."""

import math

import pytest

from arznet.rootfind import SolverFailure, bisect, newton


def sqrt2(x):
    """f(x) = x^2 - 2 and its slope: increasing and convex on [1, 2]."""
    return x * x - 2.0, 2.0 * x


def test_newton_lands_on_the_root():
    # from the right end, the tangents of an increasing convex f undershoot
    assert newton(sqrt2, 2.0, 1.0, 2.0, 1e-6) == pytest.approx(math.sqrt(2.0), rel=2e-16)


def test_newton_takes_one_step_past_the_tolerance():
    # |f(1.5)| = 0.25 is within tolerance; the step it still takes lands inside the bracket
    assert newton(sqrt2, 1.5, 1.0, 2.0, 0.3) == pytest.approx(1.5 - 0.25 / 3.0)


def test_newton_keeps_a_converged_iterate_whose_step_leaves_the_bracket():
    # |f(1)| = 1 is within tolerance, and the step from the left end overshoots to 1.5
    assert newton(sqrt2, 1.0, 1.0, 1.45, 1.0) == 1.0


def test_newton_returns_an_exact_root_with_zero_slope():
    assert newton(lambda x: (0.0, 0.0), 0.0, 0.0, 0.0, 0.0) == 0.0


def test_newton_step_leaving_the_bracket_raises_with_diagnostics():
    # from the left end the tangents overshoot: the first step goes to 1.5
    with pytest.raises(SolverFailure, match="left the bracket") as err:
        newton(sqrt2, 1.0, 1.0, 1.45, 1e-12)
    d = err.value.diagnostics
    assert (d["x"], d["f"], d["lo"], d["hi"], d["step"]) == (1.0, -1.0, 1.0, 1.45, 1.5)
    for name in ("x", "f", "lo", "hi"):
        assert f"'{name}':" in str(err.value)


def test_newton_zero_slope_off_the_root_raises():
    with pytest.raises(SolverFailure, match="left the bracket") as err:
        newton(lambda x: (1.0, 0.0), 0.5, 0.0, 1.0, 1e-12)
    assert math.isnan(err.value.diagnostics["step"])


def test_newton_past_max_iter_raises_with_diagnostics():
    with pytest.raises(SolverFailure, match="did not converge") as err:
        newton(sqrt2, 2.0, 1.0, 2.0, 1e-15, max_iter=2)
    d = err.value.diagnostics
    assert d["max_iter"] == 2 and (d["lo"], d["hi"]) == (1.0, 2.0)
    assert 1.0 <= d["x"] <= 2.0 and d["f"] == sqrt2(d["x"])[0] and abs(d["f"]) > 1e-15


def test_bisect_without_a_sign_change_raises():
    with pytest.raises(SolverFailure, match="no sign change") as err:
        bisect(lambda x: x * x + 1.0, -1.0, 1.0, 1e-12)
    assert err.value.diagnostics["a"] == -1.0 and err.value.diagnostics["b"] == 1.0


def test_bisect_past_max_iter_raises():
    with pytest.raises(SolverFailure, match="did not converge"):
        bisect(lambda x: x * x - 2.0, 1.0, 2.0, 1e-15, max_iter=3)
