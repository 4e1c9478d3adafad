"""The package's public names, and the names the benchmark's tracer wraps.

The benchmark (``bench/``) is not part of this suite, and its tracer wraps
package functions by name (``junction.solve_merge``, ``sim.interface_flux``,
...). A refactor that deletes or renames one of them fails here.
"""

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
