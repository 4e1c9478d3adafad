"""The scalar root finders: convergence, and failure with diagnostics instead of a result."""

import math

import pytest

from arznet import rootfind
from arznet.rootfind import SolverFailure, bisect, newton, regula_falsi


def sqrt2(x):
    """f(x) = x^2 - 2 and its slope: increasing and convex on [1, 2]."""
    return x * x - 2.0, 2.0 * x


def recording(f):
    """``f`` and the list of points it is evaluated at."""
    points = []

    def g(x):
        points.append(x)
        return f(x)
    return g, points


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


def test_newton_past_max_iter_raises_with_diagnostics(monkeypatch):
    monkeypatch.setattr(rootfind, "MAX_ITER", 2)
    with pytest.raises(SolverFailure, match="did not converge") as err:
        newton(sqrt2, 2.0, 1.0, 2.0, 1e-15)
    d = err.value.diagnostics
    assert d["max_iter"] == 2 and (d["lo"], d["hi"]) == (1.0, 2.0)
    assert 1.0 <= d["x"] <= 2.0 and d["f"] == sqrt2(d["x"])[0] and abs(d["f"]) > 1e-15


def test_bisect_without_a_sign_change_raises():
    with pytest.raises(SolverFailure, match="no sign change") as err:
        bisect(lambda x: x * x + 1.0, -1.0, 1.0, 1e-12)
    assert err.value.diagnostics["a"] == -1.0 and err.value.diagnostics["b"] == 1.0


def test_bisect_past_max_iter_raises(monkeypatch):
    monkeypatch.setattr(rootfind, "MAX_ITER", 3)
    with pytest.raises(SolverFailure, match="did not converge"):
        bisect(lambda x: x * x - 2.0, 1.0, 2.0, 1e-15)


def test_regula_falsi_lands_on_the_root():
    f, points = recording(lambda x: x * x - 2.0)
    assert regula_falsi(f, 1.0, 2.0, -1.0, 2.0, 1e-6) == pytest.approx(math.sqrt(2.0), rel=2e-16)
    # the ends are not evaluated again; the last iterate is within 1e-6, the extra
    # secant step through the last two iterates lands on the root
    assert 1.0 not in points and 2.0 not in points and len(points) <= 6
    assert abs(points[-1] - math.sqrt(2.0)) > 1e-12


def test_regula_falsi_keeps_a_converged_iterate_whose_step_leaves_the_bracket():
    # f(0.5) = 0.9 is within tolerance; the secant through it and f(1) = 1 goes to -4
    def f(x):
        return 0.2 * x + 0.8 if x > 0.1 else 18.0 * x - 1.0
    assert regula_falsi(f, 0.0, 1.0, f(0.0), f(1.0), 0.95) == 0.5


def test_regula_falsi_through_a_kink():
    # the slope jumps from 2 to 50 at 0.5, on the far side of the root
    f, points = recording(lambda x: 2.0 * x - 0.3 if x < 0.5 else 0.7 + 50.0 * (x - 0.5))
    assert regula_falsi(f, 0.0, 1.0, -0.3, 25.7, 1e-13) == pytest.approx(0.15, rel=1e-15)
    assert len(points) <= 8


def test_regula_falsi_returns_an_end_within_tolerance():
    assert regula_falsi(lambda x: 1 / 0, 1.0, 2.0, 1e-13, 2.0, 1e-12) == 1.0
    assert regula_falsi(lambda x: 1 / 0, 1.0, 2.0, -1.0, 0.0, 0.0) == 2.0


def test_regula_falsi_secant_point_on_an_end_falls_back_to_the_midpoint():
    # fb - fa overflows to -inf, so the secant point rounds onto the end b = 1
    f, points = recording(lambda x: -1e308 * x)
    assert regula_falsi(f, -1.0, 1.0, 1e308, -1e308, 1e-12) == 0.0
    assert points == [0.0]


def test_regula_falsi_secant_point_from_an_infinite_value_falls_back_to_the_midpoint():
    f, points = recording(lambda x: x - 0.3)
    assert regula_falsi(f, 0.0, 1.0, -math.inf, 0.7, 1e-12) == pytest.approx(0.3)
    assert points[0] == 0.5


def test_regula_falsi_without_a_sign_change_raises():
    with pytest.raises(SolverFailure, match="no sign change") as err:
        regula_falsi(lambda x: x * x + 1.0, -1.0, 1.0, 2.0, 2.0, 1e-12)
    assert err.value.diagnostics == {"a": -1.0, "b": 1.0, "fa": 2.0, "fb": 2.0, "tol": 1e-12}


def test_regula_falsi_with_a_nan_end_raises():
    with pytest.raises(SolverFailure, match="no sign change"):
        regula_falsi(lambda x: x, -1.0, 1.0, math.nan, 1.0, 1e-12)


def test_regula_falsi_past_max_iter_raises_with_diagnostics(monkeypatch):
    monkeypatch.setattr(rootfind, "MAX_ITER", 2)
    f, points = recording(lambda x: x * x - 2.0)
    with pytest.raises(SolverFailure, match="did not converge") as err:
        regula_falsi(f, 1.0, 2.0, -1.0, 2.0, 1e-15)
    d = err.value.diagnostics
    assert d["max_iter"] == 2 and len(points) == 2
    assert d["x"] == points[-1] and d["f"] == d["x"] ** 2 - 2.0 and abs(d["f"]) > 1e-15
    # the bracket still holds the root
    assert min(d["a"], d["b"]) < math.sqrt(2.0) < max(d["a"], d["b"])
    for name in ("x", "f", "a", "b"):
        assert f"'{name}':" in str(err.value)
