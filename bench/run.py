"""arznet benchmark: one workload, measured for a fixed time, outputs checked.

    python3 bench/run.py --workload ramp_sweep --seed 1 --seconds 20 --trace 0

Workloads: ramp_sweep, corridor_fine, junction_validate (see bench/README.md).
With ``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics, whose times are scaled to a reference host speed (see
``hostspeed.py``); with ``--trace 1`` it holds the per-layer metrics of a
traced run instead, unscaled. Single process, single thread, closed loop: each
operation starts when the previous one has finished. Run it from the root of
a checkout; it imports the package from ``src/`` there and writes only under
``.bench_work/``.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "cell_steps_per_s": "1/s",
    "solve_us.p50": "us",
    "solve_us.p99": "us",
    "peak_rss_mb": "MB",
}


def import_package():
    """Import ``arznet`` from this checkout's ``src/``, never from anywhere else."""
    pkg = SRC / "arznet"
    if not (pkg / "__init__.py").is_file():
        raise SystemExit(f"error: no package at {pkg}; run the benchmark inside a checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import arznet

    if Path(arznet.__file__).resolve().parent != pkg.resolve():
        raise SystemExit(f"error: imported arznet from {arznet.__file__}, not from {pkg}")
    return arznet


def _git(*args) -> str | None:
    try:
        out = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                             timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment(seed: int) -> dict:
    import numpy

    sha = _git("rev-parse", "HEAD")
    dirty = _git("status", "--porcelain", "--untracked-files=no")
    return {
        "git_sha": sha or "unknown (not a git checkout)",
        "git_dirty": None if sha is None or dirty is None else bool(dirty),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "seed": seed,
    }


class Tally:
    """Attempted and failed operations (sweep points, simulate runs, instances)."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def run(self, wl, around=contextlib.nullcontext):
        """One checked operation; an exception fails all of its units."""
        try:
            res = wl.op(around)
        except Exception as exc:  # the benchmark must report, not stop, on a broken output
            self.attempted += wl.units
            self.failed += wl.units
            self.problems.append(f"{type(exc).__name__}: {exc}")
            return None
        self.attempted += res.attempted
        self.failed += res.failed
        self.problems += res.problems
        return res


def _malloc_trim():
    try:
        trim = ctypes.CDLL(None).malloc_trim
    except (AttributeError, OSError):  # not glibc
        return lambda: None
    return lambda: trim(0)


# Set-up is timed from a trimmed heap, as in a fresh process. Otherwise
# whether its arrays reuse memory that the last operation freed or fault in
# new pages changes from one operation to the next: corridor_fine's set-up
# took 0.3-0.9 ms by operation on the reference host.
trim_heap = _malloc_trim()

WARM_UP_S = 2.0


def _warm_up(wl, tally):
    """Fill caches and finish lazy set-up; these operations are checked but not timed."""
    stop = time.perf_counter() + WARM_UP_S
    while True:
        for _ in range(wl.setup_reps):
            wl.setup()
        tally.run(wl)
        if time.perf_counter() >= stop:
            break


def untraced(wl, seconds: float, tally: Tally):
    """End-to-end metrics (name -> (value, unit)) and their sample counts.

    Every time is scaled to the reference host speed: the host-speed probe
    runs before and after each cycle of set-ups and one operation. The
    cycle's set-up and operation times are divided by the mean slowdown of
    the two probes. The ``junction.solve`` calls, made at the end of the
    operation, are divided by the slowdown of the probe right after them,
    from its scalar part only.
    """
    import hostspeed

    _warm_up(wl, tally)
    setups, ops, probes = [], [], [hostspeed.probe()]
    stop = time.perf_counter() + seconds
    while True:
        raw_setups = []
        for _ in range(wl.setup_reps):
            trim_heap()
            raw_setups.append(wl.setup())
        res = tally.run(wl)
        probes.append(hostspeed.probe())
        scale = 1.0 / statistics.fmean(hostspeed.slowdown(p, wl.probe_vectors)
                                       for p in probes[-2:])
        setups += [t * scale for t in raw_setups]
        if res is not None:
            ops.append((scale, 1.0 / hostspeed.slowdown(probes[-1], False), res))
        if time.perf_counter() >= stop:
            break
    if not ops:
        return None, {}
    from workloads import p50_p99

    # The percentiles are over instances. An instance's latency is the low
    # median of its scaled calls, which drops both a call the host slowed
    # and one scaled by a probe the host slowed while the call ran fast.
    # Instances called fewer times than the others (junction_validate's last
    # batches) are left out.
    calls = {}
    for _, solve_scale, r in ops:
        for key, ns in r.solve_ns.items():
            calls.setdefault(key, []).extend(t * solve_scale for t in ns)
    full = max(map(len, calls.values()), default=0)
    calls = {key: ns for key, ns in calls.items() if len(ns) == full}
    p50, p99 = p50_p99([statistics.median_low(ns) for ns in calls.values()])
    values = {
        "setup_s": statistics.median(setups),
        "run_s": statistics.median(scale * r.run_s for scale, _, r in ops),
        "cell_steps_per_s": statistics.median(r.cell_steps / (scale * r.run_s)
                                              for scale, _, r in ops),
        "solve_us.p50": p50 / 1e3,
        "solve_us.p99": p99 / 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    scalar, vector = zip(*probes)
    print(f"# host probe_s scalar median {statistics.median(scalar)!r} min {min(scalar)!r} "
          f"max {max(scalar)!r}, vector median {statistics.median(vector)!r}; unscaled "
          f"run_s median {statistics.median(r.run_s for _, _, r in ops)!r}")
    metrics = {k: (values[k], unit) for k, unit in END_TO_END.items()}
    return metrics, {"setup_s": len(setups), "run_s": len(ops), "solve_us": len(calls),
                     "solve_calls": sum(map(len, calls.values())), "probe": len(probes)}


def traced(wl, seconds: float, tally: Tally):
    """Per-layer metrics from traced operations alternating with untraced ones."""
    import tracer
    from workloads import CorridorFine

    tr = tracer.Tracer()
    _warm_up(wl, tally)
    plain, traced_ops = [], []
    stop = time.perf_counter() + seconds
    while True:
        for around, runs in ((contextlib.nullcontext, plain), (tr.active, traced_ops)):
            wl.setup()
            res = tally.run(wl, around)
            if res is not None:
                runs.append(res.run_s)
        if time.perf_counter() >= stop:
            break
    if not plain or not traced_ops:
        return None, {}
    metrics = tracer.layer_metrics(tr, len(tr.op_ns))
    metrics.update(tracer.kernel_metrics(CorridorFine.CELLS))
    overhead = statistics.median(traced_ops) / statistics.median(plain) - 1.0
    metrics["trace.overhead_frac"] = (overhead, "frac")
    if tr.missing:
        print(f"# trace: missing targets {tr.missing}")
    return metrics, {"traced_ops": len(traced_ops), "untraced_ops": len(plain),
                     "sim.step": len(tr.durations["sim.step"])}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["ramp_sweep", "corridor_fine", "junction_validate"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    import_package()
    from workloads import WORKLOADS

    work = ROOT / ".bench_work"
    work.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work))
    tally = Tally()
    try:
        wl = WORKLOADS[args.workload](args.seed, workdir)
        measure = traced if args.trace else untraced
        metrics, samples = measure(wl, args.seconds, tally)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.rmdir()

    print(f"# env {json.dumps(environment(args.seed))}")
    print(f"# samples {json.dumps(samples)}")
    frac = tally.failed / tally.attempted if tally.attempted else float("nan")
    print(f"# fail_frac {frac} ({tally.failed} failed of {tally.attempted} attempted)")
    for p in tally.problems[:10]:
        print(f"# problem: {p}")
    if metrics is None:
        print("error: no operation completed", file=sys.stderr)
        return 1
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value!r} {unit}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
