"""The package's public names, and the names the benchmark reads or wraps.

The benchmark (``bench/``) is not part of this suite. Its workloads call
package functions by name (``scenario.build_junction_spec``,
``oracle.convexity_probe``, ...) and its tracer wraps others
(``junction.solve_merge``, ``sim.interface_flux``, ...). A refactor that
deletes or renames one of them fails here.
"""

import ast
import importlib
import sys
from pathlib import Path

import arznet

BENCH = Path(__file__).resolve().parents[1] / "bench"


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


def test_benchmark_reads_resolve():
    reads = _arznet_reads(BENCH / "workloads.py") | _arznet_reads(BENCH / "tracer.py")
    assert {("arznet.scenario", "build_junction_spec"), ("arznet.scenario", "junction_states"),
            ("arznet.oracle", "convexity_probe")} <= reads
    missing = sorted(f"{mod}.{name}" for mod, name in reads
                     if not hasattr(importlib.import_module(mod), name))
    assert missing == []
