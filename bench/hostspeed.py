"""Host-speed probe: a fixed workload timed next to every operation.

The reference host is shared with other tenants, and its speed for this code
moves by up to 1.9x within minutes. The probe does work like the package's
but never calls the package, so a change to the program cannot move it. A
time divided by ``slowdown(probe(), vectors)`` is that time at the
reference speed. The probe has two parts, and a time uses those that
resemble its own work: Python float arithmetic on small objects with numpy
scalar arithmetic (every time), and numpy kernels on 25 000-element arrays
(the operations and set-ups of the workloads with large arrays:
corridor_fine's roads and the oracle's 512 x 512 grid in junction_validate;
not single ``junction.solve`` calls, which are scalar code).

On the reference host, over 20 s windows of a 5-minute recording, the raw
time of one simulated ramp point (100 steps on 3 x 100 cells) spread 28 %
between quartiles; its ratio to the first part spread 1.4 %, and to both
parts 4.2 %. For a 4 x 5000-cell corridor run the figures were 31 %, 3.5 %
and 3.2 %.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

# Probe times that define the reference speed, near the typical times of
# each part on the reference host (python part 5-8 ms, vector part 2-6 ms).
REF_PYTHON_S = 0.007
REF_VECTORS_S = 0.005
REPS = 3

_GAMMA = np.float64(1.7)
_ARRAY = np.linspace(1.0, 150.0, 25_000)


class _Params:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b


def _objects() -> float:
    acc = 0.0
    kept = []
    for i in range(6000):
        p = _Params(1.0 + i % 7, 2.0 + i % 3)
        acc += (p.a / p.b) * ((1.0 + i % 50) / 90.0) ** 1.7 + math.sqrt(acc % 10.0)
        kept.append((p, acc))
        if len(kept) > 64:
            kept.clear()
    return acc


def _numpy_scalars() -> float:
    acc = np.float64(0.0)
    for i in range(3000):
        x = np.float64(i % 90 + 1)
        acc = acc + (x / 90.0) ** _GAMMA - np.sqrt(x)
    return float(acc)


def _numpy_vectors() -> None:
    for _ in range(20):
        (_ARRAY / 200.0) ** 1.5


def probe() -> tuple[float, float]:
    """Median seconds of ``REPS`` runs of each part: (Python and numpy scalars, numpy vectors)."""
    scalar, vector = [], []
    for _ in range(REPS):
        t0 = time.perf_counter()
        _objects()
        _numpy_scalars()
        t1 = time.perf_counter()
        _numpy_vectors()
        scalar.append(t1 - t0)
        vector.append(time.perf_counter() - t1)
    return statistics.median(scalar), statistics.median(vector)


def slowdown(times: tuple[float, float], vectors: bool) -> float:
    """Probe time over its reference, from the first part or from both parts."""
    if vectors:
        return sum(times) / (REF_PYTHON_S + REF_VECTORS_S)
    return times[0] / REF_PYTHON_S
