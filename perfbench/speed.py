"""Speed meter: how fast the machine runs right now, sampled in-process.

On a shared machine the same pass takes up to 1.8 times as long from one
minute to the next, as other tenants load the cores. A fixed loop timed
for 300 s on the 2-core machine of the first measurements varied like
1/f: the mean speed over windows of 2, 10, 20 and 60 s had coefficients
of variation 0.13, 0.11, 0.10 and 0.08, so longer runs barely help.

While a pass runs, a timer signal interrupts the benchmark every
INTERVAL_S and times a fixed chunk of reference work, a mix of
interpreter steps and small numpy calls like the workloads'. The chunk
takes REFERENCE_S at the nominal speed. Samples are even in time, so the
mean of REFERENCE_S / chunk time over a window is the machine's mean
speed there relative to nominal, and a window's calibrated time is its
measured time times that factor: the time it would have taken at the
nominal speed. Time spent in the meter is kept out of every measurement
by `clock`, which counts it off perf_counter. While other Python threads
run (the sampler's `threads=2`), the meter takes no samples, since their
work would be counted off as the meter's; such a job takes its pass's
factor.

The chunk is the benchmark's own code, so changes to loggas cannot move
it. REFERENCE_S is a fixed constant near the chunk's time on that
machine under load; calibrated times are only comparable under one
value, so it must not change.
"""

from __future__ import annotations

import math
import signal
import statistics
import threading
import time

import numpy as np

REFERENCE_S = 0.010
INTERVAL_S = 0.2
SETUP_INTERVAL_S = 0.05  # set-up lasts about a second; sample it more densely
MIN_SAMPLES = 5  # fewer chunks than this say too little about a window
_CHUNK_STEPS = 1500


def _reference_chunk(x: np.ndarray) -> float:
    s = 0.0
    for i in range(_CHUNK_STEPS):
        j = i % len(x)
        d = x - 0.5 * x[j]
        d[j] = 1.0
        s += math.log(abs(float(np.log(np.abs(d)).sum())) + 1.0)
    return s


class SpeedMeter:
    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (clock at start, chunk seconds)
        self.spent = 0.0
        self._x = np.linspace(-1.0, 1.0, 32)
        self._previous = None

    def clock(self) -> float:
        """perf_counter with the meter's own time taken out."""
        return time.perf_counter() - self.spent

    def _tick(self, signum, frame) -> None:
        if threading.active_count() > 1:
            # other Python threads would run during the chunk and their
            # work would be counted off as the meter's
            return
        t = time.perf_counter()
        _reference_chunk(self._x)
        dt = time.perf_counter() - t
        self.samples.append((t - self.spent, dt))
        self.spent += time.perf_counter() - t

    def start(self, interval: float = INTERVAL_S) -> None:
        """Start sampling, or change the interval if already started."""
        if self._previous is None:
            self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, interval, interval)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def factor(self, start: float, end: float) -> float | None:
        """Mean speed over nominal speed for a window of `clock` time.

        Chunks are sampled evenly in time, so the mean of REFERENCE_S / dt
        is the time average of the speed ratio. None if the window holds
        fewer than MIN_SAMPLES chunks.
        """
        ratios = [REFERENCE_S / dt for t, dt in self.samples if start <= t < end]
        return statistics.fmean(ratios) if len(ratios) >= MIN_SAMPLES else None
