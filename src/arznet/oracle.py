"""Brute-force references for the junction solvers.

Feasibility is evaluated straight from the defining constraints (demand caps and
the implicitly mixed downstream supply), independently of the closed-form supply
geometry used by the analytic merge solver.  Grid sampling of the feasible set
and its Pareto front provides the validation targets for the solver outputs.
"""

from __future__ import annotations

import csv
import itertools
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import fundamental as fd
from .junction import Branch, flux_tol, modified_density


@dataclass(frozen=True)
class MergeContext:
    """Riemann data of a 2-to-1 merge, with the derived attributes and demand caps.

    The derived values are computed on first access and kept.
    """

    in1: Branch
    in2: Branch
    out: Branch

    @cached_property
    def w1(self) -> float:
        return fd.attribute(*self.in1)

    @cached_property
    def w2(self) -> float:
        return fd.attribute(*self.in2)

    @cached_property
    def delta1(self) -> float:
        p, s = self.in1
        return fd.demand(p, s.rho, self.w1)

    @cached_property
    def delta2(self) -> float:
        p, s = self.in2
        return fd.demand(p, s.rho, self.w2)


def supply_at(ctx: MergeContext, q1, q2):
    """Downstream supply at a flux pair, via the flux-weighted attribute mixture.

    Computed from the demand/supply primitives (modified density then supply),
    not from the ratio-parameterized closed form of the analytic solver.
    Python floats in give a Python float out; arrays give an array.
    """
    p3, s3 = ctx.out
    total = q1 + q2
    if isinstance(total, (int, float)):
        w_mix = (q1 * ctx.w1 + q2 * ctx.w2) / total if total > 0 else ctx.w2
    else:
        with np.errstate(invalid="ignore", divide="ignore"):
            w_mix = np.where(total > 0, (q1 * ctx.w1 + q2 * ctx.w2) / np.where(total > 0, total, 1.0), ctx.w2)
    rho_t = modified_density(p3, w_mix, s3.v)
    return fd.supply(p3, rho_t, w_mix)


def feasible(ctx: MergeContext, q1, q2):
    """Membership in the admissible flux set (demand caps and mixed supply cap): bool or bool array."""
    tol = flux_tol(max(ctx.delta1, ctx.delta2))
    ok = (q1 >= -tol) & (q2 >= -tol)
    ok &= (q1 <= ctx.delta1 + tol) & (q2 <= ctx.delta2 + tol)
    ok &= q1 + q2 <= supply_at(ctx, q1, q2) + tol
    return ok if isinstance(ok, np.ndarray) else bool(ok)


@dataclass
class FeasibleSample:
    """Grid sample of the admissible flux set and its non-dominated subset."""

    q1_axis: np.ndarray      # (n,) grid values along q1
    q2_axis: np.ndarray      # (n,) grid values along q2
    feasible: np.ndarray     # (n, n) bool, indexed [i, j] -> (q1_axis[i], q2_axis[j])
    pareto: np.ndarray       # (n, n) bool, non-dominated feasible points
    resolution: tuple[float, float]  # grid step along q1 and along q2

    def pareto_points(self) -> np.ndarray:
        """(k, 2) array of the sampled Pareto-front flux pairs."""
        ii, jj = np.nonzero(self.pareto)
        return np.column_stack([self.q1_axis[ii], self.q2_axis[jj]])


# Rows of the grid tested for feasibility at a time. The test holds about ten
# temporaries of the block's size: 20 MB for a whole 512 x 512 grid, 5 MB for
# 128 rows. Each element takes the same operations either way.
_GRID_ROWS = 128


def sample_pareto(ctx: MergeContext, n: int = 512) -> FeasibleSample:
    """n x n grid over [0, Delta1] x [0, Delta2] with dominance filtering."""
    if n < 100:
        raise ValueError(f"grid resolution must be at least 100, got {n}")
    d1, d2 = ctx.delta1, ctx.delta2
    q1_axis = np.linspace(0.0, d1, n)
    q2_axis = np.linspace(0.0, d2, n)
    feas = np.empty((n, n), dtype=bool)
    for lo in range(0, n, _GRID_ROWS):
        rows = slice(lo, lo + _GRID_ROWS)
        feas[rows] = feasible(ctx, q1_axis[rows, None], q2_axis[None, :])

    # A grid point is dominated iff some feasible point has strictly larger
    # indices in both coordinates (grid steps exceed the flux tolerance).
    rev = feas[::-1, ::-1]
    any_upper_right = np.maximum.accumulate(np.maximum.accumulate(rev, axis=0), axis=1)[::-1, ::-1]
    dominated = np.zeros_like(feas)
    dominated[:-1, :-1] = any_upper_right[1:, 1:]
    pareto = feas & ~dominated

    return FeasibleSample(
        q1_axis=q1_axis, q2_axis=q2_axis, feasible=feas, pareto=pareto,
        resolution=(float(q1_axis[1] - q1_axis[0]), float(q2_axis[1] - q2_axis[0])),
    )


def convexity_probe(ctx: MergeContext, trials: int, rng=None, segment_points: int = 10) -> int:
    """Count segment-membership failures between random pairs of feasible points."""
    if trials < 1:
        raise ValueError("at least one trial is required")
    rng = np.random.default_rng(rng)
    d1, d2 = ctx.delta1, ctx.delta2
    violations = 0
    for _ in range(trials):
        pts = []
        for _ in range(64):
            cand = (rng.uniform(0, d1) if d1 > 0 else 0.0,
                    rng.uniform(0, d2) if d2 > 0 else 0.0)
            if feasible(ctx, *cand):
                pts.append(cand)
            if len(pts) == 2:
                break
        if len(pts) < 2:
            continue  # nearly empty set: nothing to probe
        (a1, a2), (b1, b2) = pts
        ts = rng.uniform(0.0, 1.0, size=segment_points)
        q1s = a1 + ts * (b1 - a1)
        q2s = a2 + ts * (b2 - a2)
        violations += int(np.count_nonzero(~np.asarray(feasible(ctx, q1s, q2s))))
    return violations


def max_flux_single_inflow(demand_cap: float, supply_caps, alphas, n: int = 4096) -> float:
    """Grid-search reference for the maximal feasible inflow of a diverge (or 1-to-1).

    Feasibility of a candidate q is checked constraint by constraint, not via the
    min formula of the analytic solver.
    """
    qs = np.linspace(0.0, demand_cap, n)
    ok = np.ones_like(qs, dtype=bool)
    for sup, a in zip(supply_caps, alphas):
        ok &= a * qs <= sup
    feas = qs[ok]
    return float(feas.max()) if feas.size else 0.0


def write_sample_csv(sample: FeasibleSample, path, extra_points=None) -> None:
    """Dump a feasible sample as CSV (columns q1,q2,feasible,pareto).

    ``extra_points`` are appended as marker rows (label, q1, q2) for plotting.
    """
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["q1", "q2", "feasible", "pareto"])
        q2 = [repr(q) for q in sample.q2_axis.tolist()]
        for q1, feas, par in zip(sample.q1_axis.tolist(), sample.feasible.view(np.uint8),
                                 sample.pareto.view(np.uint8)):
            writer.writerows(zip(itertools.repeat(repr(q1)), q2, feas.tolist(), par.tolist()))
        if extra_points:
            writer.writerow([])
            writer.writerow(["label", "q1", "q2", ""])
            for label, q1, q2 in extra_points:
                writer.writerow([label, repr(float(q1)), repr(float(q2)), ""])
