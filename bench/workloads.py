"""The benchmark's three workloads: inputs made from a seed, one timed operation, output checks.

Every workload calls the package only through module attributes
(``cli.main``, ``junction.solve``, ...), so that the traced run can wrap them.
An operation is timed inside ``around()``, a context manager that the traced
run replaces with one that installs the tracer around exactly that region.
"""

from __future__ import annotations

import collections
import contextlib
import csv
import io
import json
import math
import re
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from arznet import cli, oracle, scenario
from arznet import junction as jn
from arznet.fundamental import RoadParams, TrafficState
from arznet.junction import JunctionKind, JunctionSpec

# Paper's on-ramp reference (road 1 at density 30, road 3 at density 10,
# priority 0.5): desired road-2 inflow, then the realized q1, q2 and outflow.
RAMP_ROWS = [
    (1000.0, 2500.0, 1000.0, 3500.0),
    (1400.0, 2500.0, 1400.0, 3900.0),
    (1500.0, 2413.1, 1500.0, 3913.1),
    (1750.0, 2155.0, 1750.0, 3905.0),
    (2000.0, 1945.3, 1945.3, 3890.6),
    (2500.0, 1924.6, 1924.6, 3849.3),
    (3000.0, 1903.9, 1903.9, 3807.7),
    (3500.0, 1881.9, 1881.9, 3763.8),
]
DIRECT_TOL = 5e-3      # criterion 1: direct solver against the paper's table
SIMULATED_TOL = 1e-2   # criterion 2: simulated sweep against the direct sweep
LEDGER_TOL = 1e-10     # criterion 6: relative ledger residuals
MOMENTUM_TOL = 1e-9    # criterion 6: junction momentum balance


@dataclass
class OpResult:
    """Outcome of one timed operation and of the checks on its output."""

    run_s: float
    attempted: int
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    cell_steps: int = 0
    # junction.solve latencies in ns, by instance; a key names the same
    # instance in every operation of a run
    solve_ns: dict = field(default_factory=dict)

    def fail(self, message: str, units: int = 1) -> None:
        self.failed = min(self.attempted, self.failed + units)
        self.problems.append(message)


def p50_p99(values) -> tuple[float, float]:
    """Median and 99th percentile; zeros when there are no samples."""
    if len(values) < 2:
        v = float(values[0]) if values else 0.0
        return v, v
    q = statistics.quantiles(values, n=100, method="inclusive")
    return q[49], q[98]


def _timed(around, fn):
    """(seconds, result) of ``fn()`` run inside ``around()``."""
    with around():
        t0 = time.perf_counter()
        out = fn()
        return time.perf_counter() - t0, out


def _cli(argv):
    """Exit code and captured standard output of one in-process ``arznet`` command."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def _solve_ns(spec, states) -> int:
    t0 = time.perf_counter_ns()
    jn.solve(spec, states)
    return time.perf_counter_ns() - t0


def _time_solves(cases, reps: int) -> dict[int, list[int]]:
    """``junction.solve`` latencies in ns of each (spec, states), by position, from ``reps`` passes."""
    out = {i: [] for i in range(len(cases))}
    for _ in range(reps):
        for i, (spec, states) in enumerate(cases):
            out[i].append(_solve_ns(spec, states))
    return out


def _setup_network(path) -> float:
    t0 = time.perf_counter()
    scenario.build_network(scenario.load(path))
    return time.perf_counter() - t0


def _steps(stdout: str) -> int:
    m = re.search(r"^steps: (\d+)", stdout, re.MULTILINE)
    if m is None:
        raise ValueError("simulate printed no step count")
    return int(m.group(1))


def _ledger_float(text: str) -> float:
    """A ledger.csv number. With numpy >= 2 the CLI writes some as ``np.float64(x)``."""
    m = re.fullmatch(r"np\.float64\((.*)\)", text)
    return float(m.group(1) if m else text)


def _road(rid, rho_max, gamma, cells, length, **init):
    return {"id": rid, "rho_max": rho_max, "v_ref": 100.0, "gamma": gamma,
            "length": length, "cells": cells, **init}


# ---------------------------------------------------------------------------
# ramp_sweep: 8-point simulated capacity-drop on the on-ramp reference
# ---------------------------------------------------------------------------

class RampSweep:
    """``arznet capacity-drop`` in simulated mode; junction solves are half of each step."""

    name = "ramp_sweep"
    probe_vectors = False  # see hostspeed.py
    setup_reps = 5
    T_END = 0.005  # [h]: 100 steps per point on 3 x 100 cells
    SOLVE_REPS = 20

    def __init__(self, seed: int, workdir: Path, t_end: float = T_END):
        rng = np.random.default_rng(seed)
        # the paper fixes the sweep points; the seed only orders them
        self.sweep = [RAMP_ROWS[i][0] for i in rng.permutation(len(RAMP_ROWS))]
        self.units = len(self.sweep)
        self.workdir = workdir
        self.doc = {
            "roads": [_road("r1", 180.0, 1.2, 100, 1.0, rho0=30.0),
                      _road("r2", 180.0, 1.2, 100, 1.0, rho0=30.0),
                      _road("r3", 90.0, 1.7, 100, 1.0, rho0=10.0)],
            "junctions": [{"kind": "merge", "in": ["r1", "r2"], "out": ["r3"],
                           "priority": 0.5}],
            # steady_tol 0: every point runs the full horizon
            "sim": {"t_end": t_end, "cfl": 0.5, "steady_tol": 0.0},
        }
        self.path = workdir / "ramp.json"
        self.path.write_text(json.dumps(self.doc))
        self.out = workdir / "ramp_out"
        self.sweep_arg = ",".join(repr(q) for q in self.sweep)
        self.reference, self.bad_reference = self._reference()
        self.cell_steps, self.solve_cases = self._per_point()

    def _rows(self):
        lines = (self.out / "capacity_drop.csv").read_text().splitlines()[1:]
        return {row[2]: row for row in ([float(x) for x in ln.split(",")] for ln in lines)}

    def _reference(self):
        """Direct-solver rows of the same sweep, themselves checked against the paper."""
        shutil.rmtree(self.out, ignore_errors=True)
        code, _ = _cli(["capacity-drop", "--scenario", str(self.path), "--sweep",
                        self.sweep_arg, "--out", str(self.out), "--direct"])
        if code != 0:
            raise RuntimeError(f"direct capacity-drop exited with {code}")
        rows = self._rows()
        bad = set()
        for q2, *want in RAMP_ROWS:
            got = rows.get(q2)
            if got is None or any(abs(g - w) / w > DIRECT_TOL
                                  for g, w in zip((got[1], got[3], got[4]), want)):
                bad.add(q2)
        return rows, bad

    def _per_point(self):
        """Cell-steps of one sweep as ``arznet simulate`` reports them, and solve probes."""
        cells = sum(r["cells"] for r in self.doc["roads"])
        total = 0
        cases = []
        for q in self.sweep:
            doc = json.loads(json.dumps(self.doc))
            del doc["roads"][1]["rho0"]
            doc["roads"][1]["q_desired"] = q
            path = self.workdir / "ramp_point.json"
            path.write_text(json.dumps(doc))
            code, stdout = _cli(["simulate", "--scenario", str(path),
                                 "--out", str(self.workdir / "ramp_point")])
            if code != 0:
                raise RuntimeError(f"simulate at q2={q} exited with {code}")
            total += cells * _steps(stdout)
            sc = scenario.load(path)
            decl = sc.junctions[0]
            cases.append((scenario.build_junction_spec(sc, decl),
                          scenario.junction_states(sc, decl)))
        return total, cases

    def setup(self) -> float:
        return _setup_network(self.path)

    def op(self, around=contextlib.nullcontext) -> OpResult:
        shutil.rmtree(self.out, ignore_errors=True)
        argv = ["capacity-drop", "--scenario", str(self.path), "--sweep", self.sweep_arg,
                "--out", str(self.out)]
        run_s, (code, _) = _timed(around, lambda: _cli(argv))
        res = OpResult(run_s, self.units, cell_steps=self.cell_steps)
        if code != 0:
            res.fail(f"capacity-drop exited with {code}", self.units)
            return res
        rows = self._rows()
        for q2 in self.sweep:
            got, ref = rows.get(q2), self.reference.get(q2)
            if q2 in self.bad_reference:
                res.fail(f"q2={q2}: direct row off the paper's table by more than {DIRECT_TOL}")
            elif got is None:
                res.fail(f"q2={q2}: row missing")
            else:
                dev = max(abs(g - r) / abs(r) for g, r in zip(got[1:], ref[1:]))
                if dev > SIMULATED_TOL:
                    res.fail(f"q2={q2}: simulated row off the direct row by {dev:.3e}")
        res.solve_ns = _time_solves(self.solve_cases, self.SOLVE_REPS)
        return res


# ---------------------------------------------------------------------------
# corridor_fine: 4-road corridor, 10^5 cells; cell kernels dominate
# ---------------------------------------------------------------------------

class CorridorFine:
    """``arznet simulate`` on a 1-to-1 junction then a two-way diverge, fine mesh."""

    name = "corridor_fine"
    probe_vectors = True  # see hostspeed.py
    setup_reps = 5
    units = 1
    CELLS = 25_000        # per road: 10^5 cells in all
    T_END = 2.5e-5        # [h]: 100 steps
    SOLVE_REPS = 100
    # id, rho_max, gamma, cell size relative to the others. Road a only ever
    # carries its own attribute w = v_ref, so its wave speeds stay within
    # v_ref; on the other roads gamma >= 1 keeps them within 2 v_ref. Meshing
    # road a twice as fine makes its CFL bound set dt on every step, so the
    # step count does not depend on the seeded densities.
    ROADS = (("a", 200.0, 1.0, 0.5), ("b", 150.0, 1.5, 1.0), ("c", 240.0, 2.0, 1.0),
             ("d", 120.0, 3.0, 1.0))

    def __init__(self, seed: int, workdir: Path, cells: int = CELLS, t_end: float = T_END):
        rng = np.random.default_rng(seed)
        # density over rho_max: a free-flow road feeds a jam; the diverge
        # sends into one road of each
        free, jam = (0.05, 0.3), (0.6, 0.9)
        c_d = (free, jam) if rng.integers(2) else (jam, free)
        fracs = [float(rng.uniform(*lo_hi)) for lo_hi in (free, jam, *c_d)]
        alpha = round(float(rng.uniform(0.3, 0.7)), 6)
        dx = 1e-4  # [km]
        self.doc = {
            "roads": [_road(rid, rho_max, gamma, cells, cells * dx * rel, rho0=f * rho_max)
                      for (rid, rho_max, gamma, rel), f in zip(self.ROADS, fracs)],
            "junctions": [
                {"kind": "one_to_one", "in": ["a"], "out": ["b"]},
                {"kind": "diverge", "in": ["b"], "out": ["c", "d"],
                 "alphas": [alpha, 1.0 - alpha]},
            ],
            "sim": {"t_end": t_end, "cfl": 0.5, "steady_tol": 0.0},
        }
        self.cells = 4 * cells
        self.path = workdir / "corridor.json"
        self.path.write_text(json.dumps(self.doc))
        self.out = workdir / "corridor_out"
        sc = scenario.load(self.path)
        self.specs = [scenario.build_junction_spec(sc, decl) for decl in sc.junctions]

    def setup(self) -> float:
        return _setup_network(self.path)

    def _check(self, res: OpResult):
        """Ledger and profile checks; returns each road's first and last (rho, v)."""
        with open(self.out / "ledger.csv") as fh:
            for row in csv.DictReader(fh):
                r = _ledger_float(row["relative_residual"])
                if not abs(r) <= LEDGER_TOL:
                    res.fail(f"{row['quantity']} ledger residual {r:.3e} > {LEDGER_TOL}")
                    break
        first, last, count = {}, {}, 0
        with open(self.out / "profiles.csv") as fh:
            reader = csv.reader(fh)
            next(reader)
            for rid, _, rho, v in reader:
                rho, v = float(rho), float(v)
                if not (math.isfinite(rho) and math.isfinite(v) and rho >= 0 and v >= 0):
                    res.fail(f"road {rid}: profile value rho={rho} v={v}")
                    break
                first.setdefault(rid, (rho, v))
                last[rid] = (rho, v)
                count += 1
        if count != self.cells and not res.failed:
            res.fail(f"profiles.csv has {count} cells, expected {self.cells}")
        return first, last

    def op(self, around=contextlib.nullcontext) -> OpResult:
        shutil.rmtree(self.out, ignore_errors=True)
        argv = ["simulate", "--scenario", str(self.path), "--out", str(self.out)]
        run_s, (code, stdout) = _timed(around, lambda: _cli(argv))
        res = OpResult(run_s, self.units)
        if code != 0:
            res.fail(f"simulate exited with {code}")
            return res
        res.cell_steps = self.cells * _steps(stdout)
        first, last = self._check(res)
        if not res.failed:
            ends = [[last["a"], first["b"]], [last["b"], first["c"], first["d"]]]
            cases = [(spec, [TrafficState(*rv) for rv in states])
                     for spec, states in zip(self.specs, ends)]
            res.solve_ns = _time_solves(cases, self.SOLVE_REPS)
        return res


# ---------------------------------------------------------------------------
# junction_validate: seeded random junctions through the solvers and oracles
# ---------------------------------------------------------------------------

def _rand_params(rng):
    return (float(rng.uniform(20, 300)), float(rng.uniform(40, 160)), float(rng.uniform(0.5, 4.0)))


def _rand_state(rng, p):
    return (float(rng.uniform(1e-3, 0.98 * p[0])), float(rng.uniform(0.5, p[1])))


def _staircase_front(sample):
    """Non-dominated column maxima of a sampled feasible set (criterion 4c)."""
    feas = sample.feasible
    m = feas.shape[1]
    jmax = np.where(feas.any(axis=1), m - 1 - np.argmax(feas[:, ::-1], axis=1), -1)
    pts = []
    best = -1
    for i in range(feas.shape[0] - 1, -1, -1):
        if jmax[i] > best:
            pts.append((float(sample.q1_axis[i]), float(sample.q2_axis[jmax[i]])))
            best = jmax[i]
    return np.array(pts[::-1])


def pareto_problem(ctx, sol, priority) -> str | None:
    """Criterion 4b/4c against the 512 x 512 grid oracle; None when the solution passes."""
    q1, q2 = sol.q_in
    sample = oracle.sample_pareto(ctx, n=512)
    step1 = float(sample.q1_axis[1] - sample.q1_axis[0])
    step2 = float(sample.q2_axis[1] - sample.q2_axis[0])
    tol = jn.flux_tol(max(1.0, ctx.delta1, ctx.delta2))
    i0 = int(np.searchsorted(sample.q1_axis, q1 + step1 + tol))
    j0 = int(np.searchsorted(sample.q2_axis, q2 + step2 + tol))
    if sample.feasible[i0:, j0:].any():
        return "dominated by a feasible grid point"
    pts = _staircase_front(sample)
    tot = pts.sum(axis=1)
    good = tot > 0
    if good.any():
        ratios = pts[good, 0] / tot[good]
        slack = 3.0 * max(step1, step2) / np.maximum(tot[good], max(step1, step2))
        excess = abs(sol.ratio - priority) - np.abs(ratios - priority) - slack
        if float(excess.max()) > 0:
            return "a sampled front point is closer to the priority ratio"
    return None


class JunctionValidate:
    """Random 1-to-1, diverge and merge instances through the solvers, the checks and the oracles.

    Instances are drawn like those of acceptance criteria 4 and 10. A batch of
    ``per_kind`` instances of each kind is one operation.
    """

    name = "junction_validate"
    probe_vectors = True  # see hostspeed.py
    setup_reps = 1
    PER_KIND = 40
    PARETO_EVERY = 5  # one merge in PARETO_EVERY also gets the 512 x 512 grid check
    RETIMES = 3  # solve passes over each batch: after its own operation and the next two

    def __init__(self, seed: int, workdir: Path | None = None, per_kind: int = PER_KIND):
        self.rng = np.random.default_rng(seed)
        self.per_kind = per_kind
        self.units = 3 * per_kind
        self.batch = None
        self.batches = 0
        # solved instances of the last RETIMES batches, as (key, spec, states)
        self.recent = collections.deque(maxlen=self.RETIMES)

    def _draw(self):
        """Plain numbers for one batch: (kind, road params, states, alphas or priority)."""
        rng = self.rng
        raw = []
        for kind in JunctionKind:
            for _ in range(self.per_kind):
                if kind is JunctionKind.ONE_TO_ONE:
                    ps = [_rand_params(rng), _rand_params(rng)]
                    extra = None
                elif kind is JunctionKind.DIVERGE:
                    m = int(rng.integers(2, 4))
                    ps = [_rand_params(rng) for _ in range(m + 1)]
                    a = rng.dirichlet(np.full(m, 2.0))
                    extra = tuple(float(x) for x in a[:-1]) + (float(1.0 - a[:-1].sum()),)
                else:
                    ps = [_rand_params(rng) for _ in range(3)]
                    extra = float(rng.uniform(0.05, 0.95))
                raw.append((kind, ps, [_rand_state(rng, p) for p in ps], extra))
        return raw, int(rng.integers(2**32))

    def setup(self) -> float:
        """Draw the next batch, then time building its specs and states from the numbers."""
        raw, probe_seed = self._draw()
        t0 = time.perf_counter()
        batch = []
        for kind, ps, ss, extra in raw:
            params = [RoadParams(*p) for p in ps]
            n_in = 2 if kind is JunctionKind.MERGE else 1
            spec = JunctionSpec(
                kind, tuple(params[:n_in]), tuple(params[n_in:]),
                alphas=extra if kind is JunctionKind.DIVERGE else None,
                priority=extra if kind is JunctionKind.MERGE else None)
            batch.append((spec, [TrafficState(*s) for s in ss]))
        elapsed = time.perf_counter() - t0
        self.batches += 1
        self.batch = (batch, probe_seed, self.batches)
        return elapsed

    def _check(self, spec, states, sol, probe_rng, merge_index) -> str | None:
        """Gates of criteria 4, 5, 6 (junction part), 7 and 10 for one instance."""
        if math.fsum(sol.q_in) != math.fsum(sol.q_out):
            return "junction mass not exact"
        mom_in = math.fsum(q * w for q, w in zip(sol.q_in, sol.w_in))
        mom_out = math.fsum(q * w for q, w in zip(sol.q_out, sol.w_out))
        if abs(mom_in - mom_out) / max(1.0, mom_in) > MOMENTUM_TOL:
            return "junction momentum balance"
        if not jn.check_admissibility(spec, states, sol).ok:
            return "inadmissible waves"
        rep = jn.check_consistency(spec, states)
        if spec.kind is not JunctionKind.MERGE:
            # criterion 10 gates the single-incoming kinds; merges are reported by case
            if not rep.within(jn.flux_tol(max(1.0, *sol.q_in, *sol.q_out))):
                return f"self-consistency deviation {rep.max_deviation:.3e}"
            return None
        n = len(spec.incoming)
        ctx = oracle.MergeContext(*zip(spec.incoming + spec.outgoing, states[:n] + states[n:]))
        if not oracle.feasible(ctx, *sol.q_in):
            return "merge flux outside the oracle's feasible set"
        if oracle.convexity_probe(ctx, trials=1, rng=probe_rng, segment_points=10):
            return "feasible set not convex along a probe segment"
        if merge_index % self.PARETO_EVERY == 0:
            return pareto_problem(ctx, sol, spec.priority)
        return None

    def op(self, around=contextlib.nullcontext) -> OpResult:
        if self.batch is None:
            self.setup()
        batch, probe_seed, batch_id = self.batch
        self.batch = None
        solve_ns = {}
        problems = []

        def core():
            probe_rng = np.random.default_rng(probe_seed)
            merges = 0
            for i, (spec, states) in enumerate(batch):
                try:
                    t0 = time.perf_counter_ns()
                    sol = jn.solve(spec, states)
                    solve_ns[batch_id, i] = [time.perf_counter_ns() - t0]
                    merge_index = merges
                    merges += spec.kind is JunctionKind.MERGE
                    problem = self._check(spec, states, sol, probe_rng, merge_index)
                except Exception as exc:  # a raising solver is a failed instance
                    problem = f"{type(exc).__name__}: {exc}"
                if problem:
                    problems.append(f"{spec.kind.value}: {problem}")

        run_s, _ = _timed(around, core)
        # Outside run_s, one pass over the solved instances of this batch and
        # of the two before it. Each instance is called once in its operation
        # and once after each of three operations, seconds apart, so a slow
        # spell of the host covers only some of its calls.
        self.recent.append([(key, *batch[key[1]]) for key in solve_ns])
        for solved in self.recent:
            for key, spec, states in solved:
                solve_ns.setdefault(key, []).append(_solve_ns(spec, states))
        res = OpResult(run_s, self.units, solve_ns=solve_ns,
                       cell_steps=sum(len(s) for _, s in batch))
        for p in problems:
            res.fail(p)
        return res


WORKLOADS = {w.name: w for w in (RampSweep, CorridorFine, JunctionValidate)}
