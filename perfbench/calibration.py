"""Machine-speed calibration: turns measured seconds into steady ones.

The benchmark runs on shared machines whose speed drifts by tens of percent
over minutes, as neighbours load the host.  The drift slows the library and
any other pure-Python code alike, in CPU time as much as in wall time.  So
the worker times a fixed loop of exact arithmetic after every job, and
scales the times of each pass by ``REFERENCE_S`` over the loop's median time
in that pass.  A scaled value reads as seconds on a machine where the loop
takes ``REFERENCE_S``.  The loop does not touch ``finhopf``, so a change to
the library moves the metrics and leaves the loop alone.
"""

from __future__ import annotations

import gc
import statistics
import time
from fractions import Fraction

# The loop's time on the 2-core machine the benchmark was built on, when
# that machine was quiet.
REFERENCE_S = 0.02
# Calibration time after a job, as a share of the job's own time.
SHARE = 0.1


def loop():
    """Products of sparse rational polynomials kept in dicts: the kind of
    work the library does, in plain Python."""
    poly = {(i, j): Fraction(i + 1, j + 2) for i in range(6) for j in range(6)}
    for _ in range(6):
        out = {}
        for (i, j), x in poly.items():
            for (k, l), y in poly.items():
                key = ((i + k) % 7, (j + l) % 7)
                out[key] = out.get(key, 0) + x * y
    return out


def sample(budget_s: float) -> list[float]:
    """Time the loop repeatedly for about ``budget_s``, at least once.

    The collector is off meanwhile, so a large heap left by the library
    cannot slow the loop down.
    """
    times = []
    gc.disable()
    try:
        while not times or sum(times) < budget_s:
            start = time.perf_counter()
            loop()
            times.append(time.perf_counter() - start)
    finally:
        gc.enable()
    return times


def scale(times: list[float]) -> float:
    """The factor that turns seconds measured alongside these loop times
    into reference seconds."""
    return REFERENCE_S / statistics.median(times)
