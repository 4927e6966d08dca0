"""Host-speed calibration for timings on a shared machine.

The host this benchmark was built on runs the same code up to 1.7 times
slower from one second to the next, because other tenants share its
cores.  A fixed piece of work that uses nothing from steershare (integer
loop, float formatting, small numpy kron/eigvalsh, like the program's own
mix) is timed next to every measured call.  A call's time is reported at
reference speed: its wall time times CAL_REF_S over the calibration time
measured beside it.  The program's code never runs in the calibration, so
a change to the program moves only the call times.

The calibration counts the CPU time of its own thread, with the garbage
collector off.  Shared-core slowdowns, which come from other tenants
competing for cache and cores, slow that CPU time as much as the
program's wall time.  A slowdown the program brings on its own process
does not: time spent waiting for the GIL while a thread of the program
runs is not CPU time of the calibration thread, and a heap the program
leaves behind cannot make the calibration collect garbage.  So such a
slowdown shows in the reported times instead of being divided out.
"""

from __future__ import annotations

import gc
import statistics
import time

import numpy as np

# Calibration time on the reference host: about what the work below takes
# on a quiet core of the 2-core machine the README figures come from.
CAL_REF_S = 1.2e-3

_H = np.add.outer(np.arange(8.0), np.arange(8.0)) / 64
_P = np.array([[0.0, 1.0], [1.0, 0.0]])


def _work() -> tuple[int, str]:
    acc = 0
    for i in range(1500):
        acc += (i * i) % 7
    text = ",".join(f"{i / 7:.12g}" for i in range(150))
    for _ in range(25):
        np.linalg.eigvalsh(np.kron(np.kron(_P, _P), _P) @ _H + _H)
    return acc, text


def seconds() -> float:
    """CPU time of this thread for one run of the calibration work."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t = time.thread_time()
        _work()
        return time.thread_time() - t
    finally:
        if enabled:
            gc.enable()


def reference_seconds(wall: float) -> float:
    """`wall` seconds just measured, at reference speed: scaled by the
    median of five calibrations timed right after it."""
    return wall * CAL_REF_S / statistics.median(seconds() for _ in range(5))


def speed_factors(cal: list[float]) -> list[float]:
    """Per call, CAL_REF_S over the median of the five nearest calibrations."""
    return [CAL_REF_S / statistics.median(cal[max(0, i - 2):i + 3])
            for i in range(len(cal))]
