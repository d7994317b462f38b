"""Scaling timings to a reference host speed.

On a shared virtual machine the speed of one thread changes with what other
tenants run: on a 2-vCPU Xeon VM it changed by up to 1.8x, for seconds or
minutes at a time, with steal time near zero.  Such a change slows every
piece of Python code alike, so a fixed pure-Python loop timed next to each
operation measures it.  A timing multiplied by ``REFERENCE_S / loop time``
is the time the operation would take at the reference speed, at which the
loop takes ``REFERENCE_S``.  The loop is benchmark code: nothing in the
library can change its cost.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

#: seconds the calibration loop takes at the reference speed (it took
#: 220-350 microseconds on the 2-vCPU Xeon VM above)
REFERENCE_S = 250e-6
#: calibration samples in the rolling median that scales one timing
WINDOW = 9


def _loop() -> tuple:
    """Integer, tuple, dict and Fraction work, like the library's."""
    counts: dict = {}
    total = 0
    frac = Fraction(1, 3)
    for i in range(300):
        key = (i, i * 7 % 13)
        counts[key] = counts.get(key, 0) + 1
        total += (i * i - 3 * i) // 7
        if i % 10 == 0:
            frac += Fraction(i, 7)
    return total, frac


def calibrate() -> float:
    """Seconds one run of the calibration loop takes now."""
    t0 = time.perf_counter()
    _loop()
    return time.perf_counter() - t0


def factor_now(samples: int = WINDOW) -> float:
    """The factor that scales a timing taken now to the reference speed."""
    return REFERENCE_S / statistics.median(calibrate() for _ in range(samples))


def factors(loop_times: list[float]) -> list[float]:
    """Per-timing factors from the calibration time taken after each timing:
    the reference time over a centred rolling median of ``WINDOW`` samples."""
    half = WINDOW // 2
    return [
        REFERENCE_S / statistics.median(loop_times[max(0, i - half) : i + half + 1])
        for i in range(len(loop_times))
    ]
