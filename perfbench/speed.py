"""Machine-speed calibration for perfbench timings.

The benchmark machine's speed drifts by up to 1.5x over seconds to minutes
(other tenants share the host), far more than the changes the benchmark
must resolve.  So every pass times a fixed exact-arithmetic kernel, which
does not touch paraclaw, after set-up, after the last request and whenever
CALIBRATION_INTERVAL_S of requests have run.  A request's time is scaled by
CALIBRATION_REFERENCE_S over the mean of the kernel times just before and
just after it; set-up and spans by the median over the pass.  Timings are
reported in seconds at the reference speed.  The reference is the kernel's typical
time on an idle 2-core Xeon VM.
"""

from __future__ import annotations

import gc
import random
import statistics
import time
from fractions import Fraction

from oracles import nullspace

CALIBRATION_REFERENCE_S = 0.035
CALIBRATION_INTERVAL_S = 1.0
SHOTS = 3

_rng = random.Random("perfbench-calibration")
_MATRIX = [[Fraction(_rng.randint(-9, 9), _rng.randint(1, 5)) for _ in range(24)]
           for _ in range(18)]


def calibrate() -> float:
    """Best of SHOTS timings of the kernel; the cyclic collector is off
    meanwhile, so the program's heap does not change the figure."""
    best = float("inf")
    gc.disable()
    try:
        for _ in range(SHOTS):
            started = time.perf_counter()
            nullspace(_MATRIX, 24)
            best = min(best, time.perf_counter() - started)
    finally:
        gc.enable()
    return best


def scale(calibrations: list[float]) -> float:
    """Factor from seconds measured during a pass to seconds at the
    reference speed."""
    return CALIBRATION_REFERENCE_S / statistics.median(calibrations)
