"""The package's public names, and the names the benchmark reads or wraps.

The benchmark (``bench/``) is not part of this suite. Its workloads call
package functions by name (``scenario.build_junction_spec``,
``oracle.convexity_probe``, ...) and its tracer wraps others
(``junction.solve_merge``, ``sim.interface_flux``, ...). A refactor that
deletes or renames one of them fails here. So does a test module that
imports another.
"""

import ast
import copy
import importlib
import json
import sys
from pathlib import Path

import numpy as np

import arznet
from arznet import cli, junction, oracle, scenario
from shared import MERGE_DOC

TESTS = Path(__file__).resolve().parent
BENCH = TESTS.parent / "bench"


def test_public_names_resolve():
    for name in arznet.__all__:
        assert getattr(arznet, name, None) is not None, name


def test_tracer_targets_exist(monkeypatch):
    # import the benchmark's modules without writing bytecode into bench/
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(BENCH))
    try:
        tracer = importlib.import_module("tracer")
        assert Path(tracer.__file__).parent == BENCH
        assert tracer.Tracer().missing == []
    finally:
        for name in ("tracer", "workloads"):
            sys.modules.pop(name, None)


def test_tracer_sees_every_live_target(monkeypatch, tmp_path, capsys):
    """Each tracer target but the known-dead ones records a call on a small merge.

    A refactor that routes a call past its target's module attribute leaves
    the target's metrics at 0 without a missing-target report; this names it.
    """
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(BENCH))
    doc = copy.deepcopy(MERGE_DOC)
    for road in doc["roads"]:
        road["cells"] = 20
    doc["sim"]["t_end"] = 0.001
    path = tmp_path / "merge.json"
    path.write_text(json.dumps(doc))
    sc = scenario.load(path)
    (nj,) = sc.junctions
    states = scenario.junction_states(sc, nj)
    ctx = oracle.MergeContext(*zip(nj.spec.incoming + nj.spec.outgoing, states))
    try:
        tracer = importlib.import_module("tracer")
        tr = tracer.Tracer()
        tr.install()
        try:
            for argv in (["solve"], ["simulate", "--out", str(tmp_path / "run")],
                         ["pareto-dump", "--out", str(tmp_path / "pareto"), "--grid", "100"]):
                assert cli.main([argv[0], "--scenario", str(path), *argv[1:]]) == 0
            sol = junction.solve(nj.spec, states)
            assert junction.check_admissibility(nj.spec, states, sol).ok
            junction.check_consistency(nj.spec, states)
            oracle.convexity_probe(ctx, trials=1, rng=np.random.default_rng(0))
        finally:
            tr.uninstall()
        called = {name for _, name in tr.calls}
        never = {name for name, _, _ in tracer.TARGETS} - called
    finally:
        for name in ("tracer", "workloads"):
            sys.modules.pop(name, None)
    # no solver calls ``bisect`` since the traces and the merge moved to Newton and
    # regula falsi, nor the simulator ``interface_flux`` since its ghost-padded roads
    assert never == {"rootfind.bisect", "sim.interface_flux"}


def _arznet_reads(path: Path) -> set[tuple[str, str]]:
    """(module, name) pairs that a source file imports or reads from arznet's modules.

    Found from the file's syntax tree: the file itself is not imported.
    """
    tree = ast.parse(path.read_text(), filename=str(path))
    modules, reads = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "arznet":
            for alias in node.names:
                reads.add((node.module, alias.name))
                full = f"{node.module}.{alias.name}"
                try:  # a submodule, or a name defined in the module
                    importlib.import_module(full)
                    modules[alias.asname or alias.name] = full
                except ModuleNotFoundError:
                    pass
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            reads.add((modules[node.value.id], node.attr))
    return reads


def test_no_test_module_imports_another():
    """What test modules share lives in ``shared`` and ``shared_strategies``: a test
    module imported by another runs its module code twice and ties the two together."""
    imports = []
    for path in sorted(TESTS.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                imports += [(path.name, alias.name) for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                imports += [(path.name, node.module or alias.name) for alias in node.names]
    assert [(f, m) for f, m in imports if m.split(".")[0].startswith("test_")] == []


def test_no_test_reads_a_private_sim_name():
    """Tests drive the simulator through its public names: ``sim.step`` takes a whole step."""
    private = sorted((path.name, name) for path in TESTS.glob("*.py")
                     for mod, name in _arznet_reads(path)
                     if mod == "arznet.sim" and name.startswith("_"))
    assert private == []


def test_benchmark_reads_resolve():
    reads = _arznet_reads(BENCH / "workloads.py") | _arznet_reads(BENCH / "tracer.py")
    assert {("arznet.scenario", "build_junction_spec"), ("arznet.scenario", "junction_states"),
            ("arznet.oracle", "convexity_probe")} <= reads
    missing = sorted(f"{mod}.{name}" for mod, name in reads
                     if not hasattr(importlib.import_module(mod), name))
    assert missing == []
