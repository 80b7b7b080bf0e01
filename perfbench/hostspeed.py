"""Host-speed correction of the end-to-end times.

On a shared host the speed of a vCPU follows the load of other tenants:
on the 2-vCPU Xeon VM this benchmark was built on, one ra-w threshold
search took 1.8 s or 3.6 s depending on the minute,
so raw wall times of the same code drifted by more than any useful bound
between runs a few minutes apart.

HostSpeed runs a fixed probe, which is the benchmark's own code and no
part of the program, every PROBE_INTERVAL_S in the main thread, from a
timer signal.  The probe mixes interpreter work and small numpy calls,
as the program's DE and peeling loops do.  Its mean time over a run,
over REFERENCE_PROBE_S, is the run's slowdown; a corrected time is the
wall time minus the probes that ran inside it, over that slowdown: an
estimate of the time at the reference host speed.  Forked children do
not inherit the timer.
"""

from __future__ import annotations

import bisect
import signal
import time

import numpy as np

PROBE_INTERVAL_S = 0.02
PROBE_LOOPS = 100
REFERENCE_PROBE_S = 2.0e-4  # the probe's time at the faster speed level of that VM

_ARRAY = np.linspace(0.0, 1.0, 40)


def probe() -> float:
    """Wall time of one fixed piece of interpreter and small-array numpy work."""
    t0 = time.perf_counter()
    x = 0
    for i in range(PROBE_LOOPS):
        x += i * i
        _ARRAY * 0.5 + _ARRAY
    return time.perf_counter() - t0


class HostSpeed:
    """Samples the host speed while active (a context manager)."""

    def __init__(self):
        self.starts: list[float] = []
        self.cumulative: list[float] = [0.0]  # probe time before each start, and in all
        self._previous = None

    def _sample(self, signum, frame) -> None:
        self.starts.append(time.perf_counter())
        self.cumulative.append(self.cumulative[-1] + probe())

    def __enter__(self) -> "HostSpeed":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def elapsed(self, t0: float, t1: float) -> float:
        """Wall time from t0 to t1 minus the probes that started in it."""
        i, j = bisect.bisect_left(self.starts, t0), bisect.bisect_left(self.starts, t1)
        return (t1 - t0) - (self.cumulative[j] - self.cumulative[i])

    def slowdown(self) -> float:
        """Mean probe time over REFERENCE_PROBE_S (1.0 when no probe ran)."""
        if not self.starts:
            return 1.0
        return self.cumulative[-1] / len(self.starts) / REFERENCE_PROBE_S
