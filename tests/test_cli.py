import argparse
import json

import pytest

from arznet import cli, scenario, sim
from shared import MERGE_DOC

# a road on which rho_max^2 - 4 rho_max q / v_ref rounds below 0 at its capacity q
CAP_ROAD = {"rho_max": 31.473, "v_ref": 41.983, "gamma": 1.2}
CAP_Q = 330.33273975  # v_ref * rho_max / 4


def at_capacity_doc(q_desired):
    doc = json.loads(json.dumps(MERGE_DOC))
    doc["roads"][1].update(CAP_ROAD, q_desired=q_desired)
    return doc


# w1 > w2: the solver mirrors this merge and solves it as H1a' at the stationary split P**
MIRRORED_MERGE_DOC = {
    "roads": [
        {"id": "r1", "rho_max": 89.8, "v_ref": 120.8, "gamma": 0.86, "rho0": 9.4,
         "length": 1.0, "cells": 10},
        {"id": "r2", "rho_max": 92.4, "v_ref": 101.8, "gamma": 2.58, "rho0": 54.2,
         "length": 1.0, "cells": 10},
        {"id": "r3", "rho_max": 213.3, "v_ref": 65.0, "gamma": 0.63, "rho0": 156.3,
         "length": 1.0, "cells": 10},
    ],
    "junctions": [
        {"kind": "merge", "in": ["r1", "r2"], "out": ["r3"], "priority": 0.36},
    ],
}


# w1 > w2 (road 1 is faster) and a binding supply: the solver mirrors this merge and
# returns its priority split, case E1'
MIRRORED_E1_DOC = json.loads(json.dumps(MERGE_DOC))
MIRRORED_E1_DOC["roads"][0]["v_ref"] = 110.0
MIRRORED_E1_DOC["roads"][2]["rho0"] = 70.0
MIRRORED_E1_DOC["junctions"][0]["priority"] = 0.3


def marker_rows(path):
    """The marker rows of a ``feasible.csv``, by label."""
    lines = path.read_text().splitlines()
    rows = [line.split(",") for line in lines[lines.index("label,q1,q2,") + 1:]]
    return {label: (float(q1), float(q2)) for label, q1, q2, _ in rows}


@pytest.fixture
def merge_file(tmp_path):
    path = tmp_path / "merge.json"
    path.write_text(json.dumps(MERGE_DOC))
    return path


class TestScenarioParsing:
    def test_roundtrip(self, merge_file):
        sc = scenario.load(merge_file)
        again = scenario.parse(scenario.dump(sc))
        assert again == sc

    def test_duplicate_ids_rejected(self):
        doc = json.loads(json.dumps(MERGE_DOC))
        doc["roads"][1]["id"] = "r1"
        with pytest.raises(scenario.ScenarioError, match="duplicate"):
            scenario.parse(doc)

    def test_both_density_and_flux_rejected(self):
        doc = json.loads(json.dumps(MERGE_DOC))
        doc["roads"][0]["q_desired"] = 1000.0
        with pytest.raises(scenario.ScenarioError, match="exactly one"):
            scenario.parse(doc)

    def test_unknown_junction_road(self):
        doc = json.loads(json.dumps(MERGE_DOC))
        doc["junctions"][0]["in"] = ["r1", "nope"]
        with pytest.raises(scenario.ScenarioError, match="unknown road"):
            scenario.parse(doc)

    @pytest.mark.parametrize("key", ["t_end", "cfl", "steady_tol"])
    def test_non_finite_sim_setting_rejected(self, key):
        doc = json.loads(json.dumps(MERGE_DOC))
        doc["sim"][key] = float("nan")
        with pytest.raises(scenario.ScenarioError, match=key):
            scenario.parse(doc)

    def test_q_desired_at_capacity(self):
        sc = scenario.parse(at_capacity_doc(CAP_Q))
        assert sc.roads["r2"].rho0 == 0.5 * CAP_ROAD["rho_max"]

    def test_invalid_json_reports_line(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{\n  broken\n}")
        with pytest.raises(scenario.ScenarioError, match="line 2"):
            scenario.load(path)


class TestCliCommands:
    def test_solve_exit_zero(self, merge_file, capsys):
        assert cli.main(["solve", "--scenario", str(merge_file)]) == 0
        out = capsys.readouterr().out
        assert "kind: merge" in out
        assert "ratio:" in out

    def test_solve_prints_merge_case_after_ratio(self, merge_file, tmp_path, capsys):
        assert cli.main(["solve", "--scenario", str(merge_file)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[4:6] == ["ratio: 0.500000 (1 - ratio: 0.500000)", "case: E1"]
        assert len(lines) == 9  # kind, three branches, ratio, case, three boundaries
        doc = json.loads(json.dumps(MERGE_DOC))
        doc["roads"] = doc["roads"][:2]
        doc["junctions"] = [{"kind": "one_to_one", "in": ["r1"], "out": ["r2"]}]
        path = tmp_path / "one.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["solve", "--scenario", str(path)]) == 0
        assert not any(line.startswith(("ratio:", "case:"))
                       for line in capsys.readouterr().out.splitlines())

    def test_simulate_writes_outputs(self, merge_file, tmp_path, capsys):
        out = tmp_path / "run"
        code = cli.main(["simulate", "--scenario", str(merge_file), "--out", str(out)])
        assert code == 0
        assert (out / "fluxes.csv").exists()
        assert (out / "profiles.csv").exists()
        ledger = (out / "ledger.csv").read_text().splitlines()
        assert ledger[0].startswith("quantity,")
        assert len(ledger) == 3
        for row in ledger[1:]:
            for field in row.split(",")[1:]:
                float(field)  # a plain number, not a repr such as np.float64(...)

    def test_capacity_drop_direct(self, merge_file, tmp_path, capsys):
        out = tmp_path / "cap"
        code = cli.main([
            "capacity-drop", "--scenario", str(merge_file),
            "--sweep", "1000,2000,3500", "--direct", "--out", str(out),
        ])
        assert code == 0
        rows = (out / "capacity_drop.csv").read_text().splitlines()
        assert rows[0].startswith("desired1,")
        assert len(rows) == 4

    def test_capacity_drop_sweep_at_capacity(self, tmp_path, capsys):
        path = tmp_path / "cap_road.json"
        path.write_text(json.dumps(at_capacity_doc(100.0)))
        out = tmp_path / "cap"
        code = cli.main([
            "capacity-drop", "--scenario", str(path),
            "--sweep", str(CAP_Q), "--direct", "--out", str(out),
        ])
        assert code == 0
        rows = (out / "capacity_drop.csv").read_text().splitlines()
        assert len(rows) == 2 and "nan" not in rows[1]

    def test_pareto_dump(self, merge_file, tmp_path, capsys):
        out = tmp_path / "pareto"
        code = cli.main([
            "pareto-dump", "--scenario", str(merge_file),
            "--out", str(out), "--grid", "100",
        ])
        assert code == 0
        assert (out / "feasible.csv").exists()

    def test_pareto_dump_marks_stationary_split_of_mirrored_merge(self, tmp_path, capsys):
        path = tmp_path / "mirrored.json"
        path.write_text(json.dumps(MIRRORED_MERGE_DOC))
        assert cli.main(["solve", "--scenario", str(path)]) == 0
        assert "case: H1a'" in capsys.readouterr().out
        out = tmp_path / "pareto"
        assert cli.main(["pareto-dump", "--scenario", str(path), "--out", str(out),
                         "--grid", "100"]) == 0
        markers = marker_rows(out / "feasible.csv")
        assert markers["stationary"] == markers["solver"]

    @pytest.mark.parametrize("doc, case", [(MERGE_DOC, "E1"), (MIRRORED_E1_DOC, "E1'")],
                             ids=["E1", "E1_prime"])
    def test_pareto_dump_priority_split_is_the_solvers_first_step(self, doc, case, tmp_path,
                                                                  capsys):
        path = tmp_path / "merge.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["solve", "--scenario", str(path)]) == 0
        assert f"case: {case}\n" in capsys.readouterr().out
        out = tmp_path / "pareto"
        assert cli.main(["pareto-dump", "--scenario", str(path), "--out", str(out),
                         "--grid", "100"]) == 0
        markers = marker_rows(out / "feasible.csv")
        assert markers["priority_split"] == markers["solver"]

    @pytest.mark.parametrize("sweep, message", [
        ("0,99999", "flux 99999.0 is not within the equilibrium capacity 4500.0"),
        ("0,nan", "flux nan is not within the equilibrium capacity 4500.0"),
        ("0,-1", "flux must be non-negative, got -1.0"),
        (",", "empty sweep"),
    ], ids=["above-capacity", "nan", "negative", "empty"])
    def test_capacity_drop_rejects_sweep_before_any_run(self, merge_file, monkeypatch, capsys,
                                                        sweep, message):
        def no_run(networks, cfg):
            raise AssertionError("capacity-drop ran a simulation")
        monkeypatch.setattr(sim, "run_batch", no_run)
        assert cli.main(["capacity-drop", "--scenario", str(merge_file), f"--sweep={sweep}"]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_options_of_each_command(self):
        """A run's settings come from the scenario alone: a new flag must show up here."""
        (commands,) = [a for a in cli.build_parser()._actions
                       if isinstance(a, argparse._SubParsersAction)]
        options = {name: {s for a in p._actions for s in a.option_strings} - {"-h", "--help"}
                   for name, p in commands.choices.items()}
        assert options == {
            "solve": {"--scenario"},
            "simulate": {"--scenario", "--out"},
            "capacity-drop": {"--scenario", "--sweep", "--out", "--direct"},
            "pareto-dump": {"--scenario", "--out", "--grid"},
        }

    def test_missing_scenario_is_exit_two(self, tmp_path, capsys):
        assert cli.main(["solve", "--scenario", str(tmp_path / "nope.json")]) == 2

    @pytest.mark.parametrize("command, junctions, message", [
        ("solve", [*MERGE_DOC["junctions"], {"kind": "one_to_one", "in": ["r3"], "out": ["r1"]}],
         "expected exactly one junction, found 2"),
        ("pareto-dump", [{"kind": "one_to_one", "in": ["r1"], "out": ["r2"]}],
         "pareto-dump requires a merge scenario"),
    ], ids=["solve", "pareto-dump"])
    def test_command_rejects_its_wrong_junctions(self, tmp_path, capsys, command, junctions,
                                                 message):
        """``solve`` takes one junction, ``pareto-dump`` one merge."""
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(dict(MERGE_DOC, junctions=junctions)))
        out = ["--out", str(tmp_path / "pareto")] if command == "pareto-dump" else []
        assert cli.main([command, "--scenario", str(path), *out]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.endswith(f"{message}\n")

    def test_capacity_drop_rejects_non_merge(self, tmp_path, capsys):
        doc = json.loads(json.dumps(MERGE_DOC))
        doc["junctions"] = []
        path = tmp_path / "plain.json"
        path.write_text(json.dumps(doc))
        code = cli.main(["capacity-drop", "--scenario", str(path), "--sweep", "100"])
        assert code == 2

    def test_allocation_failure_is_exit_two(self, tmp_path, monkeypatch, capsys):
        # cells 10**15 is a whole, finite number: parse accepts it, numpy cannot allocate
        # it. The MemoryError is simulated; the test never allocates for real.
        doc = json.loads(json.dumps(MERGE_DOC))
        doc["roads"][0]["cells"] = 10**15
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(doc))
        road_from_state = sim.road_from_state

        def allocate(road_id, params, length, cells, state):
            if cells > 10**9:
                raise MemoryError(f"Unable to allocate {8 * cells} bytes for {cells} cells")
            return road_from_state(road_id, params, length, cells, state)
        monkeypatch.setattr(sim, "road_from_state", allocate)
        for cmd in (["simulate", "--out", str(tmp_path / "run")],
                    ["capacity-drop", "--sweep", "1000"]):
            assert cli.main([*cmd, "--scenario", str(path)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: Unable to allocate") and "Traceback" not in err
