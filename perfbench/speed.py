"""Machine-speed readings, to take other tenants' load out of timings.

On a shared machine other tenants slow this one down in phases that
last from one second to over a minute: the same Python code then runs
up to ~65% slower, on CPU the whole time (no steal), so no clock can
tell the difference.  A fixed calibration loop slows down with it.  On
the development machine (a 2-vCPU VM) the per-second median of the
readings below tracked the per-second median latency of single runs
with correlation ~0.97, although single readings are noisy.

:class:`SpeedLog` keeps the readings of one run.  :meth:`SpeedLog.factor`
is ``REFERENCE_NS`` over the median reading of a second, so a time
multiplied by it reads as if the machine had run at the reference
speed all along; :meth:`SpeedLog.scaled` applies it second by second
to a span.  The readings use thread CPU time, so waiting for the GIL
or for a CPU does not count as slowness, and they run no code of the
program, so a change to the program cannot move them.
"""

from __future__ import annotations

import bisect
import statistics
import threading
import time

#: Reading of the calibration loop at the reference speed (the fast
#: phase of the development machine).  Any constant works for
#: comparisons; this one keeps scaled times close to raw ones.
REFERENCE_NS = 310_000


def calibrate_ns() -> int:
    """Thread CPU time of a fixed loop of arithmetic, dict and str work."""
    start = time.thread_time_ns()
    acc = 0
    for i in range(3000):
        acc += i * i % 7
    table: dict[int, int] = {}
    for i in range(750):
        key = i % 97
        table[key] = table.get(key, 0) + len(str(i))
    return time.thread_time_ns() - start


class SpeedLog:
    """Calibration readings of one run, by wall-clock second."""

    def __init__(self) -> None:
        self.start = time.perf_counter()
        self.readings: list[tuple[float, int]] = []
        self._medians: dict[int, float] | None = None

    def sample(self) -> None:
        self.readings.append((time.perf_counter(), calibrate_ns()))
        self._medians = None

    def second(self, t: float) -> int:
        return int(t - self.start)

    def per_second(self) -> dict[int, float]:
        if self._medians is None:
            buckets: dict[int, list[int]] = {}
            for t, reading in self.readings:
                buckets.setdefault(self.second(t), []).append(reading)
            self._medians = {s: statistics.median(v) for s, v in buckets.items()}
            self._seconds = sorted(self._medians)
        return self._medians

    def factor(self, t: float) -> float:
        """Reference speed over the speed of the second holding ``t``.

        A second without a reading borrows the nearest second's.
        """
        medians = self.per_second()
        if not medians:
            raise ValueError("no speed readings")
        second = self.second(t)
        if second not in medians:
            seconds = self._seconds
            i = bisect.bisect_left(seconds, second)
            near = [seconds[j] for j in (i - 1, i) if 0 <= j < len(seconds)]
            second = min(near, key=lambda s: abs(s - second))
        return REFERENCE_NS / medians[second]

    def scaled(self, t0: float, t1: float) -> float:
        """Seconds the span ``[t0, t1]`` would take at the reference speed."""
        total = 0.0
        t = t0
        while t < t1:
            edge = min(t1, self.start + self.second(t) + 1)
            total += (edge - t) * self.factor(t)
            t = edge
        return total

    def summary(self) -> dict[str, float]:
        factors = [REFERENCE_NS / m for m in self.per_second().values()]
        return {
            "factor_min": min(factors),
            "factor_median": statistics.median(factors),
            "factor_max": max(factors),
        }


class SpeedMonitor(SpeedLog):
    """A thread taking a reading every ``interval`` seconds.

    For workloads whose work runs in other threads or processes; a
    single-threaded loop samples in its own thread instead, which
    measures the CPU the work runs on.
    """

    def __init__(self, interval: float = 0.02) -> None:
        super().__init__()
        self.interval = interval
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            self.sample()

    def __enter__(self) -> "SpeedMonitor":
        self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self._stop.set()
        self._thread.join()
