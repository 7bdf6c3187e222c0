"""Host-speed calibration sampled while the benchmark's calls run.

The host this benchmark was written on changes speed by tens of percent
from one second to the next (the same sweep slice took 0.59 s to 1.11 s
within a minute), more than any sensible regression bound.  While a
Calibrator is active, SIGALRM fires every PERIOD_S and the handler times a
fixed pure-Python walk of STEPS steps in thread CPU time, which leaves out
the time the hypervisor steals from the virtual CPU.  A duration measured
over [t0, t1] is then reported net of the handler's own time and scaled by
REF_S over the mean walk time inside the window, so it reads as on a host
where the walk takes REF_S.  The walk shares no code with the program: a
program change moves scaled times exactly as it moves raw ones.

The walk is written in the style of the program's stepping loop (a closure
for the right-hand side, tuples of coefficients, nested loops, list
appends).  On that host its time tracked sweep and verify call times with a
log-log slope of 1.01-1.04 (correlation 0.97-0.98); a tight arithmetic loop
tracked with slope 0.95-1.24 and a random memory walk far worse.

Interval timers are not inherited by forked children, so pool workers are
never interrupted.  During a pooled call the ticks share the CPUs with the
workers; the benchmark records, for each such call, how its ticks compare
with ticks taken alone just before and after it.
"""

from __future__ import annotations

import bisect
import math
import signal
import time

STEPS = 40
PERIOD_S = 0.025
REF_S = 1.5e-4

_A = ((), (0.2,), (0.075, 0.225), (0.98, -3.7, 3.6), (2.9, -11.6, 9.8, -0.3))


def walk(steps: int) -> float:
    """A small explicit Runge-Kutta walk of a made-up slope equation."""
    rhs = lambda r, y: (y * y + 1.0) * (0.5 * (r - 0.1) * y + math.sqrt(1.0 - r * r)) \
        / (2.0 * (1.0 - r * r))
    r, y, h = 0.0, 0.1, 1e-4
    ys = []
    for _ in range(steps):
        ks = [rhs(r, y), 0.0, 0.0, 0.0, 0.0]
        for i in range(1, 5):
            yi = y
            for j, a in enumerate(_A[i]):
                yi += h * a * ks[j]
            ks[i] = rhs(r + 0.1 * i * h, yi)
        y += h * sum(ks) / 5
        r += h
        ys.append(y)
    return ys[-1]


class Calibrator:
    def __init__(self):
        self.starts: list[float] = []
        self.ticks: list[float] = []
        self.spent = 0.0

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def spin(self, seconds: float) -> None:
        """Keep this thread busy for ``seconds`` while ticks sample the host."""
        end = time.perf_counter() + seconds
        while time.perf_counter() < end:
            pass

    def _tick(self, signum, frame) -> None:
        t0, c0 = time.perf_counter(), time.thread_time()
        walk(STEPS)
        t1, c1 = time.perf_counter(), time.thread_time()
        self.starts.append(t0)
        self.ticks.append(c1 - c0)
        self.spent += t1 - t0

    def net_clock(self) -> float:
        """``time.perf_counter()`` less the ticks' time so far: spans timed
        with it leave the handler out."""
        return time.perf_counter() - self.spent

    def _window(self, t0: float, t1: float) -> tuple[int, int]:
        return bisect.bisect_left(self.starts, t0), bisect.bisect_right(self.starts, t1)

    def net(self, t0: float, t1: float, seconds: float | None = None) -> float:
        """``seconds`` spent in [t0, t1] (by default t1 - t0) minus the
        handler's own time there."""
        i, j = self._window(t0, t1)
        return (t1 - t0 if seconds is None else seconds) - sum(self.ticks[i:j])

    def factor(self, t0: float, t1: float) -> float:
        """REF_S over the mean walk time of the ticks in [t0, t1] (the
        nearest tick when none fell inside), leaving out the slowest
        quarter."""
        i, j = self._window(t0, t1)
        if i == j:
            i, j = max(0, i - 1), min(len(self.ticks), i + 1)
        kept = sorted(self.ticks[i:j])[: max(1, 3 * (j - i) // 4)]
        return REF_S * len(kept) / sum(kept)

    def __len__(self) -> int:
        return len(self.ticks)

    def median_tick(self) -> float:
        s = sorted(self.ticks)
        return s[len(s) // 2]
