"""Per-layer tracing from outside the package, for the traced run only.

The tracer replaces module attributes of ``arznet`` (``sim.step``,
``junction.solve``, ``fundamental.pressure``, ...) with wrappers that record a
span per call: inclusive time, self time (inclusive minus the wrapped callees)
and the calling span. ``uninstall`` puts the originals back. A target that a
refactor has removed or renamed is reported as missing and is not wrapped.
The untraced run never imports this module.
"""

from __future__ import annotations

import statistics
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

from arznet import cli, fundamental, junction, oracle, scenario, sim
from workloads import p50_p99

ROOT = "bench.op"  # the benchmark's own span around one operation
ANY = object()     # any caller
LAYERS = ("fundamental", "rootfind", "junction", "oracle", "sim", "scenario", "cli")

# (span name, module, attribute). The layer is the span name's first part;
# rootfind's bisection is wrapped where the junction solvers look it up.
TARGETS = [
    ("fundamental.pressure", fundamental, "pressure"),
    ("fundamental.demand", fundamental, "demand"),
    ("fundamental.supply", fundamental, "supply"),
    ("rootfind.bisect", junction, "bisect"),
    ("junction.solve", junction, "solve"),
    ("junction.solve_merge", junction, "solve_merge"),
    ("junction.reconstruct_boundary_state", junction, "reconstruct_boundary_state"),
    ("junction.check_consistency", junction, "check_consistency"),
    ("junction.check_admissibility", junction, "check_admissibility"),
    ("oracle.feasible", oracle, "feasible"),
    ("oracle.convexity_probe", oracle, "convexity_probe"),
    ("oracle.sample_pareto", oracle, "sample_pareto"),
    ("sim.run", sim, "run"),
    ("sim.step", sim, "step"),
    ("sim.stable_dt", sim, "stable_dt"),
    ("sim.interface_flux", sim, "interface_flux"),
    ("sim.write_flux_csv", sim, "write_flux_csv"),
    ("sim.write_profile_csv", sim, "write_profile_csv"),
    ("scenario.load", scenario, "load"),
    ("scenario.build_network", scenario, "build_network"),
    ("cli.main", cli, "main"),
]
KEEP_DURATIONS = {"sim.step"}
KINDS = ("one_to_one", "diverge", "merge")
CASES = tuple(c + p for c in ("E1", "E2", "E3", "H1a", "H1b", "H2a", "H2b", "H2c") for p in ("", "'"))


def _case_name(case: str) -> str:
    return case[:-1] + "_prime" if case.endswith("'") else case


def _kind_tag(args, result):
    return getattr(getattr(args[0], "kind", None), "value", "?") if args else "?"


def _case_tag(args, result):
    return getattr(result, "case", None) or "?"


TAGS = {"junction.solve": _kind_tag, "junction.solve_merge": _case_tag}


class Tracer:
    """Span recorder; ``active()`` wraps the targets around one operation."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.missing = sorted(name for name, mod, attr in targets
                              if not callable(getattr(mod, attr, None)))
        self._saved = []
        self.stack = []
        self.incl = defaultdict(int)            # (caller, name) -> ns
        self.calls = defaultdict(int)           # (caller, name) -> calls
        self.self_ns = defaultdict(int)         # name -> ns
        self.tagged = defaultdict(lambda: [0, 0])  # (name, tag) -> [ns, calls]
        self.durations = defaultdict(list)      # name -> per-call ns
        self.bisect_evals = 0
        self.op_ns = []

    def _wrap(self, name, fn):
        stack = self.stack
        tag = TAGS.get(name)
        keep = name in KEEP_DURATIONS
        counting = name == "rootfind.bisect"

        def wrapper(*args, **kwargs):
            if counting and args:
                f = args[0]

                def counted(x):
                    self.bisect_evals += 1
                    return f(x)
                args = (counted,) + args[1:]
            caller = stack[-1][0] if stack else None
            frame = [name, 0]
            stack.append(frame)
            t0 = time.perf_counter_ns()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                dt = time.perf_counter_ns() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dt
                self.incl[(caller, name)] += dt
                self.calls[(caller, name)] += 1
                self.self_ns[name] += dt - frame[1]
                if keep:
                    self.durations[name].append(dt)
                if tag is not None:
                    acc = self.tagged[(name, tag(args, result))]
                    acc[0] += dt
                    acc[1] += 1

        return wrapper

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        for name, mod, attr in self.targets:
            fn = getattr(mod, attr, None)
            if callable(fn):
                self._saved.append((mod, attr, fn))
                setattr(mod, attr, self._wrap(name, fn))

    def uninstall(self):
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()

    @contextmanager
    def active(self):
        """Wrap the targets and record the enclosed region as one ``ROOT`` span."""
        self.install()
        frame = [ROOT, 0]
        self.stack.append(frame)
        t0 = time.perf_counter_ns()
        try:
            yield
        finally:
            dt = time.perf_counter_ns() - t0
            self.stack.pop()
            self.incl[(None, ROOT)] += dt
            self.calls[(None, ROOT)] += 1
            self.self_ns[ROOT] += dt - frame[1]
            self.op_ns.append(dt)
            self.uninstall()

    # -- aggregates ---------------------------------------------------------

    def total(self, name, caller=ANY):
        """(inclusive ns, calls) of ``name``, from one caller or from all."""
        keys = [k for k in self.calls if k[1] == name and (caller is ANY or k[0] == caller)]
        return sum(self.incl[k] for k in keys), sum(self.calls[k] for k in keys)

    def mean_us(self, name, caller=ANY):
        ns, n = self.total(name, caller)
        return ns / n / 1e3 if n else 0.0

    def layer_self_ns(self, layer):
        return sum(v for k, v in self.self_ns.items() if k.split(".")[0] == layer)


# -- fundamental-diagram kernels, micro-timed ---------------------------------

# Computed per cell from the formulas in float64, counting a power as one
# operation: compulsory bytes (inputs read once, output written once), not
# measured traffic. pressure: (v_ref/gamma) * (rho/rho_max)^gamma.
# demand/supply: the sonic point, the flux along {w = c}, the capacity, one
# select and one clamp.
KERNEL_COST = {"pressure": (3, 16), "demand": (14, 24), "supply": (14, 24)}


def kernel_metrics(cells: int, reps: int = 40) -> dict:
    """ns per cell of the vector kernels at ``cells`` cells, and µs per scalar call."""
    p = fundamental.RoadParams(200.0, 100.0, 1.5)
    rng = np.random.default_rng(0)
    rho = rng.uniform(0.0, p.rho_max, cells)
    c = rng.uniform(40.0, 160.0, cells)
    calls = {
        "pressure": lambda: fundamental.pressure(p, rho),
        "demand": lambda: fundamental.demand(p, rho, c),
        "supply": lambda: fundamental.supply(p, rho, c),
    }
    out = {}
    for name, call in calls.items():
        call()
        samples = []
        for _ in range(reps):
            t0 = time.perf_counter_ns()
            call()
            samples.append(time.perf_counter_ns() - t0)
        ops, nbytes = KERNEL_COST[name]
        out[f"fundamental.{name}_ns_per_cell"] = (statistics.median(samples) / cells, "ns")
        out[f"fundamental.{name}_ops_per_cell_computed"] = (ops, "op")
        out[f"fundamental.{name}_bytes_per_cell_computed"] = (nbytes, "B")
    scalar = {
        "pressure": lambda: fundamental.pressure(p, 37.0),
        "demand": lambda: fundamental.demand(p, 37.0, 80.0),
    }
    for name, call in scalar.items():
        samples = []
        for _ in range(reps):
            t0 = time.perf_counter_ns()
            for _ in range(100):
                call()
            samples.append((time.perf_counter_ns() - t0) / 100)
        out[f"fundamental.{name}_scalar_us"] = (statistics.median(samples) / 1e3, "us")
    return out


# -- per-layer metrics ---------------------------------------------------------

def layer_metrics(tr: Tracer, ops: int) -> dict:
    """Per-layer metrics of ``ops`` traced operations, name -> (value, unit)."""
    m = {}
    step_ns, steps = tr.total("sim.step")
    _, runs = tr.total("sim.run")
    per_step = (lambda ns: ns / steps / 1e3) if steps else (lambda ns: 0.0)
    p50, p99 = p50_p99(tr.durations["sim.step"])
    m["sim.step_us.p50"] = (p50 / 1e3, "us")
    m["sim.step_us.p99"] = (p99 / 1e3, "us")
    flux_ns, _ = tr.total("sim.interface_flux", "sim.step")
    jn_ns, _ = tr.total("junction.solve", "sim.step")
    m["sim.step_self_us"] = (per_step(step_ns - flux_ns - jn_ns), "us")
    m["sim.stable_dt_us"] = (per_step(tr.total("sim.stable_dt")[0]), "us")
    m["sim.interface_flux_us"] = (per_step(flux_ns), "us")
    m["sim.junction_us"] = (per_step(jn_ns), "us")
    m["sim.run_self_us"] = (per_step(tr.self_ns["sim.run"]), "us")
    m["sim.steps"] = (steps / runs if runs else 0.0, "count")

    for kind in KINDS:
        ns, n = tr.tagged[("junction.solve", kind)]
        m[f"junction.solve_us.{kind}"] = (ns / n / 1e3 if n else 0.0, "us")
    for case in CASES:
        ns, n = tr.tagged[("junction.solve_merge", case)]
        m[f"junction.merge_us.{_case_name(case)}"] = (ns / n / 1e3 if n else 0.0, "us")
        m[f"junction.case_count.{_case_name(case)}"] = (n / ops, "count")
    rec_ns, _ = tr.total("junction.reconstruct_boundary_state")
    solve_ns, solves = tr.total("junction.solve")
    m["junction.reconstruct_us"] = (tr.mean_us("junction.reconstruct_boundary_state"), "us")
    m["junction.reconstruct_share"] = (rec_ns / solve_ns if solve_ns else 0.0, "frac")
    m["junction.consistency_us"] = (tr.mean_us("junction.check_consistency"), "us")
    m["junction.admissibility_us"] = (tr.mean_us("junction.check_admissibility"), "us")

    _, bisects = tr.total("rootfind.bisect")
    m["rootfind.bisect_calls"] = (bisects / solves if solves else 0.0, "count")
    m["rootfind.iters_per_call"] = (tr.bisect_evals / bisects if bisects else 0.0, "count")
    m["rootfind.self_us"] = (tr.self_ns["rootfind.bisect"] / bisects / 1e3 if bisects else 0.0,
                             "us")

    _, pressures = tr.total("fundamental.pressure")
    m["fundamental.pressure_calls_per_step"] = (pressures / steps if steps else 0.0, "count")

    m["oracle.feasible_us"] = (tr.mean_us("oracle.feasible", ROOT), "us")
    m["oracle.convexity_trial_us"] = (tr.mean_us("oracle.convexity_probe"), "us")
    m["oracle.sample_pareto_ms"] = (tr.mean_us("oracle.sample_pareto") / 1e3, "ms")

    m["scenario.load_us"] = (tr.mean_us("scenario.load"), "us")
    m["scenario.build_network_us"] = (tr.mean_us("scenario.build_network"), "us")

    csv_ns = tr.total("sim.write_flux_csv", "cli.main")[0] + tr.total(
        "sim.write_profile_csv", "cli.main")[0]
    cmd_ns = tr.total("cli.main")[0]
    m["cli.csv_write_s"] = (csv_ns / ops / 1e9, "s")
    m["cli.self_s"] = ((cmd_ns - csv_ns - tr.total("sim.run", "cli.main")[0]) / ops / 1e9, "s")

    op_ns = sum(tr.op_ns)
    attributed = 0
    for layer in LAYERS:
        ns = tr.layer_self_ns(layer)
        attributed += ns
        m[f"{layer}.layer_self_s"] = (ns / ops / 1e9, "s")
        called = sum(v for (caller, name), v in tr.incl.items()
                     if caller == ROOT and name.split(".")[0] == layer)
        m[f"{layer}.called_s"] = (called / ops / 1e9, "s")
    m["bench.layer_self_s"] = (tr.self_ns[ROOT] / ops / 1e9, "s")
    m["trace.accounted_frac"] = (attributed / op_ns if op_ns else 0.0, "frac")
    m["trace.missing_targets"] = (len(tr.missing), "count")
    return m
