"""Machine-speed probe: expresses a timed region in seconds at a reference speed.

On a host shared with other tenants the same single-threaded work can take up
to ~1.8x longer while neighbours are busy, and the slow and fast phases switch
within a second. CPU time moves with wall time (the slowdown is not steal
time), so neither removes it, and medians over a run do not either when a busy
phase lasts the whole run. While a region runs, SIGALRM fires every
INTERVAL_S and the handler times a fixed snippet; the region's time at
reference speed is

    (elapsed - time spent in the probe) * mean(REFERENCE_S / snippet time)

that is, the elapsed time scaled by the measured mean speed of the host.
The probe costs 1-2% of the region and its own time is taken out.

Contention slows pure-Python loops and small-array numpy calls by different
factors, and the workloads mix both, so the snippet does both: a snippet of
either kind alone left a spread of 6-10% of the median over passes on the
workload made mostly of the other kind, against 3-4% for both together.
"""

from __future__ import annotations

import signal
from time import perf_counter

import numpy as np

INTERVAL_S = 0.01
# About the fastest snippet time on a 2.1 GHz Xeon vCPU with CPython 3.11 and
# numpy 2.4. It only sets the scale: runs compared with one another share it.
REFERENCE_S = 1.3e-4
_LOWER, _UPPER = np.array([-1.0, -1.0]), np.array([1.0, 1.0])


def _snippet() -> None:
    x = 0.5
    slots = {}
    for i in range(750):
        x = x * 0.9 + 0.01
        slots[i & 7] = x
    v = np.array([0.5, 0.2])
    for _ in range(12):
        w = np.clip(v - 0.5 * (v - 0.1), _LOWER, _UPPER)
        float(np.linalg.norm(v - w))
        v = w


class Probe:
    """Samples the snippet's time on a timer while started."""

    def __init__(self):
        self.samples: list[float] = []

    def _sample(self, signum, frame) -> None:
        t0 = perf_counter()
        _snippet()
        self.samples.append(perf_counter() - t0)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)

    def scaled(self, elapsed: float, first: int = 0, last: int | None = None) -> float:
        """Time at reference speed of a region that took samples[first:last]."""
        taken = self.samples[first:last]
        if not taken:
            return elapsed
        speed = sum(REFERENCE_S / s for s in taken) / len(taken)
        return (elapsed - sum(taken)) * speed
