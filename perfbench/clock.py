"""Timing corrected for the host's speed during a run.

On a shared host the same job can take 1.6 times longer for stretches of
ten seconds or more while neighbours load the CPU, which swamps any bound
worth setting.  Every timed operation therefore runs between two short,
fixed calibration loops of plain Python, and a run reports each operation's
mean seconds scaled by REFERENCE_S / (mean time of the loops run beside that
operation): its time on a host where the calibration loop takes
REFERENCE_S.  The raw seconds are
printed beside every corrected value.
"""

from __future__ import annotations

import gc
import statistics
from time import perf_counter

# Seconds the calibration loop takes on an unloaded 2-vCPU x86-64 host.
REFERENCE_S = 0.02


def calibration_loop() -> float:
    """Seconds for a fixed mix of dict and int work.

    It allocates no objects the cyclic collector tracks, and the collector
    is off while it runs, so the heap left by a job cannot slow it down.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        table: dict[int, int] = {}
        for i in range(120_000):
            table[i & 1023] = table.get((i * 7) & 1023, i) ^ i
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def corrected(seconds: list[float], calibration: list[float]) -> float:
    """Mean seconds of an operation at the reference speed.

    ``calibration`` holds the loop time measured beside each sample.  A ratio
    of means: both lists sample the host's speed at the same moments, so a
    run that spent more of them in the slow mode slows both alike.  (Medians
    would flip between the fast and the slow mode.)
    """
    if not seconds or not calibration:
        return 0.0
    return statistics.fmean(seconds) * REFERENCE_S / statistics.fmean(calibration)
