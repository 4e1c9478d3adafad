"""Tests of the benchmark itself: corrupted outputs are counted, the tracer is safe.

    python3 -m pytest -q bench/test_bench.py
"""

import dataclasses
import json
import math
import sys

import pytest

import run

run.import_package()

import tracer  # noqa: E402
import workloads  # noqa: E402
from arznet import cli  # noqa: E402
from arznet import junction as jn  # noqa: E402
from arznet.junction import JunctionKind  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _after_cli(monkeypatch, command, corrupt):
    """Let ``cli.main`` run, then corrupt the output of ``command`` runs."""
    real = cli.main

    def main(argv):
        code = real(argv)
        if argv[0] == command and "--direct" not in argv:
            corrupt(argv[argv.index("--out") + 1])
        return code

    monkeypatch.setattr(cli, "main", main)


def test_ramp_sweep_counts_a_perturbed_row(tmp_path, monkeypatch):
    wl = workloads.RampSweep(1, tmp_path, t_end=0.0005)
    clean = run.Tally()
    clean.run(wl)
    assert (clean.attempted, clean.failed) == (8, 0)

    def corrupt(out):
        path = tmp_path / out / "capacity_drop.csv"
        lines = path.read_text().splitlines()
        row = lines[3].split(",")
        row[4] = repr(float(row[4]) * 1.02)  # outflow off by 2 %
        lines[3] = ",".join(row)
        path.write_text("\n".join(lines) + "\n")

    _after_cli(monkeypatch, "capacity-drop", corrupt)
    tally = run.Tally()
    tally.run(wl)
    assert (tally.attempted, tally.failed) == (8, 1)
    assert "simulated row off the direct row" in tally.problems[0]


def test_corridor_counts_a_ledger_residual_over_the_bound(tmp_path, monkeypatch):
    wl = workloads.CorridorFine(1, tmp_path, cells=200, t_end=2.5e-6)
    clean = run.Tally()
    res = clean.run(wl)
    assert (clean.attempted, clean.failed) == (1, 0)
    assert res.cell_steps == 800 * 10

    def corrupt(out):
        path = tmp_path / out / "ledger.csv"
        lines = path.read_text().splitlines()
        lines[1] = ",".join(lines[1].split(",")[:-1] + ["2e-10"])
        path.write_text("\n".join(lines) + "\n")

    _after_cli(monkeypatch, "simulate", corrupt)
    tally = run.Tally()
    tally.run(wl)
    assert (tally.attempted, tally.failed) == (1, 1)
    assert "mass ledger residual" in tally.problems[0]


def test_junction_validate_counts_merges_outside_the_feasible_set(monkeypatch):
    wl = workloads.JunctionValidate(1, per_kind=3)
    wl.setup()
    clean = run.Tally()
    clean.run(wl)
    assert (clean.attempted, clean.failed) == (9, 0)

    real = jn.solve

    def solve(spec, states):
        sol = real(spec, states)
        if spec.kind is not JunctionKind.MERGE:
            return sol
        q_in = (sol.q_in[0] * 1.5 + 1.0, sol.q_in[1])
        return dataclasses.replace(sol, q_in=q_in, q_out=(math.fsum(q_in),))

    monkeypatch.setattr(jn, "solve", solve)
    wl.setup()
    tally = run.Tally()
    tally.run(wl)
    assert (tally.attempted, tally.failed) == (9, 3)
    assert all(p.startswith("merge:") for p in tally.problems)


def _result(capsys):
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_result_line_reports_failures(monkeypatch, capsys):
    real = jn.solve

    def solve(spec, states):
        sol = real(spec, states)
        return dataclasses.replace(sol, q_out=tuple(q * 1.01 for q in sol.q_out))

    monkeypatch.setattr(jn, "solve", solve)
    assert run.main(["--workload", "junction_validate", "--seed", "3", "--seconds", "0"]) == 0
    result = _result(capsys)
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] > 0


def test_untraced_run_reports_the_end_to_end_metrics(capsys):
    sys.modules.pop("tracer", None)
    assert run.main(["--workload", "junction_validate", "--seed", "4", "--seconds", "0",
                     "--trace", "0"]) == 0
    assert "tracer" not in sys.modules
    sys.modules["tracer"] = tracer
    result = _result(capsys)
    assert result["correct"] is True and result["failed"] == 0
    want = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_untraced_times_are_scaled_to_the_reference_speed(monkeypatch):
    import hostspeed

    class Fixed:
        units = 1
        setup_reps = 2
        probe_vectors = False

        def setup(self):
            return 0.5

        def op(self, around):
            return workloads.OpResult(1.0, 1, cell_steps=10, solve_ns={
                "a": [1000, 3000, 2000, 2500], "b": [500, 2000, 3000, 4000], "c": [9000]})

    # a host at half the reference speed
    monkeypatch.setattr(hostspeed, "probe",
                        lambda: (2 * hostspeed.REF_PYTHON_S, 2 * hostspeed.REF_VECTORS_S))
    monkeypatch.setattr(run, "WARM_UP_S", 0.0)
    metrics, samples = run.untraced(Fixed(), 0.0, run.Tally())
    assert metrics["setup_s"] == (0.25, "s")
    assert metrics["run_s"] == (0.5, "s")
    assert metrics["cell_steps_per_s"] == (20.0, "1/s")
    # each instance's latency is the low median of its calls; "c", called
    # fewer times than the others, is left out
    assert metrics["solve_us.p50"] == (1.0, "us")
    assert samples["solve_us"] == 2 and samples["solve_calls"] == 8


def test_traced_run_reports_every_per_layer_metric(capsys):
    assert run.main(["--workload", "junction_validate", "--seed", "5", "--seconds", "0",
                     "--trace", "1"]) == 0
    result = _result(capsys)
    assert result["correct"] is True
    want = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert result["metrics"]["trace.missing_targets"]["value"] == 0


def test_tracer_restores_originals_and_reports_missing_targets():
    originals = {attr: getattr(mod, attr) for _, mod, attr in tracer.TARGETS}
    targets = tracer.TARGETS + [("junction.solve_fluxes", jn, "solve_fluxes_renamed")]
    tr = tracer.Tracer(targets)
    assert tr.missing == ["junction.solve_fluxes"]
    wl = workloads.JunctionValidate(2, per_kind=2)
    wl.setup()
    wl.op(tr.active)
    assert {attr: getattr(mod, attr) for _, mod, attr in tracer.TARGETS} == originals
    assert not hasattr(jn, "solve_fluxes_renamed")
    # self times along the blocking path add up to the traced operation
    assert sum(tr.self_ns.values()) == sum(tr.op_ns)
    metrics = tracer.layer_metrics(tr, len(tr.op_ns))
    assert metrics["trace.missing_targets"] == (1, "count")
    assert metrics["junction.solve_us.merge"][0] > 0
    assert metrics["rootfind.iters_per_call"][0] > 0


def test_import_outside_a_checkout_fails(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    with pytest.raises(SystemExit, match="no package"):
        run.import_package()
