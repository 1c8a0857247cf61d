"""Host-speed calibration.

The shared 2-core hosts this benchmark was written on change speed by up to
40% within a minute, which moves every timing at once; CPU time moves with
wall time, so the slowdown is in the host, not in waiting.  A fixed kernel
of the same kind of work as the CLI's (12-digit float formatting, float
arithmetic) is timed next to the ops, and each time is reported at the host
speed where the kernel takes REFERENCE_S:

    reported = measured * REFERENCE_S / kernel

The garbage collector is off during the kernel, so that objects the
program keeps alive cannot change the kernel's time.  Raw times are kept in
each run's records.
"""

from __future__ import annotations

import gc
import math
from time import perf_counter

# about the kernel's median time on the host the reference figures come from
REFERENCE_S = 0.013

_VALUES = [math.sqrt(i) * 1.2345 for i in range(1, 20001)]


def kernel_s() -> float:
    """Seconds taken by one pass of the calibration kernel."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        text = ",".join([f"{x:.12g}" for x in _VALUES])
        acc = 0.0
        for x in _VALUES:
            acc += x * 1.5 % 7.0
        elapsed = perf_counter() - t0
    finally:
        if was_enabled:
            gc.enable()
    if not text or acc != acc:
        raise RuntimeError("calibration kernel produced no result")
    return elapsed


def scale(kernel: float) -> float:
    """Factor that takes a time measured next to `kernel` to the reference speed."""
    return REFERENCE_S / kernel
