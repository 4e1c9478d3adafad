"""Scalar root finders with explicit failure diagnostics."""

from __future__ import annotations

MAX_ITER = 200


class SolverFailure(RuntimeError):
    """A scalar root-find did not converge; carries diagnostics, never a silent result."""

    def __init__(self, message: str, **diagnostics):
        super().__init__(message + (f" [{diagnostics}]" if diagnostics else ""))
        self.diagnostics = diagnostics


def bisect(f, a: float, b: float, tol: float) -> float:
    """Root of ``f`` on [a, b] by bisection; ``f(a)`` and ``f(b)`` must bracket zero.

    Converges on |f| <= tol; the bracket width only serves as a safety stop
    once it shrinks to machine precision relative to the initial interval.
    """
    width_floor = 1e-15 * max(abs(a), abs(b), 1.0)
    fa, fb = f(a), f(b)
    if abs(fa) <= tol:
        return a
    if abs(fb) <= tol:
        return b
    if fa * fb > 0:
        raise SolverFailure(
            "no sign change on bracket", a=a, b=b, fa=fa, fb=fb, tol=tol
        )
    for _ in range(MAX_ITER):
        mid = 0.5 * (a + b)
        fm = f(mid)
        if abs(fm) <= tol or (b - a) <= width_floor:
            return mid
        if fa * fm <= 0:
            b, fb = mid, fm
        else:
            a, fa = mid, fm
    raise SolverFailure(
        "bisection did not converge", a=a, b=b, fa=fa, fb=fb,
        tol=tol, max_iter=MAX_ITER,
    )


def newton(fdf, x0: float, lo: float, hi: float, tol: float) -> float:
    """Root of ``f`` on [lo, hi] by Newton's method from the bracket end ``x0``.

    ``fdf(x)`` returns ``(f(x), f'(x))``. Meant for a monotone ``f`` that is
    concave or convex on the bracket, started from the end on whose side
    every tangent undershoots: the iterates then approach the root from one
    side and never overshoot it. Converges on |f| <= tol, then takes one more
    step if it stays in [lo, hi], which lands on the root rather than anywhere
    inside the tolerance band. A step that leaves the bracket before
    convergence, or ``MAX_ITER`` steps without it, raises SolverFailure.
    """
    x = x0
    fx, dfx = fdf(x)
    for _ in range(MAX_ITER):
        # a zero slope sends the step out of the bracket (NaN compares false)
        step = x - fx / dfx if dfx else float("nan")
        inside = lo <= step <= hi
        if abs(fx) <= tol:
            return step if inside else x
        if not inside:
            raise SolverFailure(
                "Newton step left the bracket", x=x, f=fx, df=dfx, step=step,
                lo=lo, hi=hi, tol=tol,
            )
        x = step
        fx, dfx = fdf(x)
    raise SolverFailure(
        "Newton iteration did not converge", x=x, f=fx, df=dfx,
        lo=lo, hi=hi, tol=tol, max_iter=MAX_ITER,
    )


def regula_falsi(f, a: float, b: float, fa: float, fb: float, tol: float) -> float:
    """Root of ``f`` on [a, b] by the Anderson-Bjorck regula falsi.

    ``fa = f(a)`` and ``fb = f(b)`` come from the caller and must differ in
    sign. Each iterate is the secant point of the bracket ends, or the
    midpoint where rounding puts it on or past an end; an end kept twice has
    its value scaled down, so the iteration does not stall on one side.
    Converges on |f| <= tol (an end within it is returned as it is), then
    takes one more secant step through the last two iterates if it stays in
    the bracket, which lands on the root rather than anywhere inside the
    tolerance band. No sign change, or ``MAX_ITER`` iterates without
    convergence, raises SolverFailure.
    """
    if abs(fa) <= tol:
        return a
    if abs(fb) <= tol:
        return b
    if not (fa < 0.0 < fb or fb < 0.0 < fa):
        raise SolverFailure("no sign change on bracket", a=a, b=b, fa=fa, fb=fb, tol=tol)
    for _ in range(MAX_ITER):
        # b is the latest iterate; fa may carry the scaling, fb never does
        x = b - fb * (b - a) / (fb - fa)
        if not (a < x < b or b < x < a):  # a NaN point too
            x = 0.5 * (a + b)
        fx = f(x)
        if abs(fx) <= tol:
            # |fb| > tol >= |fx|, so the secant through (b, fb) and (x, fx) is defined
            step = x - fx * (x - b) / (fx - fb)
            return step if a <= step <= b or b <= step <= a else x
        if (fx < 0.0) != (fb < 0.0):
            a, fa = b, fb
        else:
            m = 1.0 - fx / fb
            fa *= m if m > 0.0 else 0.5
        b, fb = x, fx
    raise SolverFailure(
        "regula falsi did not converge", x=x, f=fx, a=a, b=b, tol=tol, max_iter=MAX_ITER,
    )
