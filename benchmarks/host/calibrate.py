"""Host-speed calibration: how fast was this machine while we measured?

On the shared 2-core sandbox the same pure-Python loop takes anything
from 1.0x to 1.8x its best time, in bursts of seconds to minutes; the
slowdown shows as *more CPU time for the same work* (not as waiting), so
``cpu_s`` suffers exactly as ``wall_s`` does, and a 15 s body measured
raw spreads 10-25% between runs of one commit.

So every child runs this file as a side process: every
:data:`PERIOD_S` it times :data:`SPIN_ITERATIONS` iterations of a fixed
loop in CPU seconds (immune to run-queue waits) and appends
``<time.perf_counter()> <cpu seconds>`` to a file (on Linux that clock is
``CLOCK_MONOTONIC``, shared by every process). :class:`HostClock` turns the
samples into a *calibrated clock*: an interval counts for its length
divided by the host's slowdown during it, relative to
:data:`REFERENCE_SPIN_S` (the quiet-host time of the loop). Every host
time the benchmark reports is read off that clock; the raw values stay in
the result file beside them. In a 400 s trial this cut the quartile
spread of 15 s blocks of identical simulations from 10-19% to about 5%.

Run as a script (never imported by the side process itself)::

    python3 calibrate.py SAMPLES_FILE
"""

from __future__ import annotations

import bisect
import sys
import time
from pathlib import Path

SPIN_ITERATIONS = 200_000
PERIOD_S = 0.2
#: CPU seconds the loop takes on the reference host when nothing else
#: disturbs it (5th percentile of 1000 samples); fixes the unit only
REFERENCE_SPIN_S = 0.0118
#: samples averaged into one speed reading (about one second)
SMOOTH = 5


def spin() -> float:
    start = time.process_time()
    x = 0
    for i in range(SPIN_ITERATIONS):
        x += i * i
    return time.process_time() - start


def sample_forever(path: str) -> None:
    with open(path, "a", buffering=1) as out:
        while True:
            out.write(f"{time.perf_counter()!r} {spin()!r}\n")
            time.sleep(PERIOD_S)


class HostClock:
    """The calibrated clock over one samples file.

    ``warp(t)`` maps a ``time.perf_counter()`` stamp to calibrated seconds;
    only differences mean anything. Stamps newer than the last sample
    are extrapolated at the last known speed, so the file is re-read
    whenever a stamp lies beyond it.
    """

    def __init__(self, path: Path) -> None:
        self.path = path
        self._times: list[float] = []
        self._tau: list[float] = []
        self._slowdown: list[float] = []

    def _refresh(self) -> None:
        rows = []
        for line in self.path.read_text().splitlines():
            parts = line.split()
            if len(parts) == 2:  # the last line may be half written
                rows.append((float(parts[0]), float(parts[1])))
        times = [t for t, _ in rows]
        spins = [s for _, s in rows]
        slowdown = []
        for i in range(len(spins)):
            window = spins[max(0, i - SMOOTH // 2) : i + SMOOTH // 2 + 1]
            slowdown.append(sum(window) / len(window) / REFERENCE_SPIN_S)
        tau = [0.0]
        for i in range(1, len(times)):
            mean = (slowdown[i - 1] + slowdown[i]) / 2.0
            tau.append(tau[-1] + (times[i] - times[i - 1]) / mean)
        self._times, self._tau, self._slowdown = times, tau, slowdown

    def warp(self, t: float) -> float:
        if not self._times or t > self._times[-1]:
            self._refresh()
        times = self._times
        if not times:
            return t  # no sample yet: an uncalibrated second
        if t <= times[0]:
            return (t - times[0]) / self._slowdown[0]
        if t >= times[-1]:
            return self._tau[-1] + (t - times[-1]) / self._slowdown[-1]
        i = bisect.bisect_right(times, t) - 1
        share = (t - times[i]) / (times[i + 1] - times[i])
        return self._tau[i] + share * (self._tau[i + 1] - self._tau[i])

    def between(self, start: float, end: float) -> float:
        """Calibrated seconds from ``start`` to ``end``."""
        return self.warp(end) - self.warp(start)


if __name__ == "__main__":
    sample_forever(sys.argv[1])
