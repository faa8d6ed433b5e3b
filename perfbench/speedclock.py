"""Time measured at a reference machine speed.

The benchmark runs on a shared virtual machine whose speed drifts while it
runs: the same pure-Python loop took anywhere from 0.24 s to 0.39 s from one
second to the next, and the same pass from 9 s to 17 s a minute apart.
Wall time then measures the host as much as the program.  ``SpeedClock``
takes the host's share out.  While it runs, a ``SIGALRM`` handler runs a
short fixed loop, the probe, every ``interval`` seconds, in the benchmark's
own thread.  Each probe gives the machine's speed at that moment: the
probe's nominal duration over its measured duration.  The wall time between
two probes times that speed is time at the reference speed, the speed at
which the probe takes ``PROBE_NOMINAL_S``.  Time spent in the probes
themselves is left out.

Because the probe is benchmark code, a change to the program under test
moves the reference time exactly as it moves the wall time; only the
machine's drift is divided out.  Intervals are converted after the fact
with ``ref_seconds``, from ``time.perf_counter`` readings taken while the
clock ran.
"""

from __future__ import annotations

import bisect
import signal
import time

PROBE_ITERS = 2000
# the probe's duration at the reference speed; measured on a 2-vCPU VM
# when the benchmark was defined
PROBE_NOMINAL_S = 0.00025


def probe(iters: int = PROBE_ITERS) -> int:
    """The fixed loop: integer arithmetic, list indexing and dict lookups,
    the mix the solvers' Python code spends its time on."""
    table = _TABLE
    index = _INDEX
    acc = 0
    for i in range(iters):
        v = table[i & 255]
        acc += index.get(v, i) * 3 % 7
    return acc


_TABLE = [(i * 7919) % 1021 for i in range(256)]
_INDEX = {v: i for i, v in enumerate(_TABLE)}


class SpeedClock:
    """Probes the machine's speed from a timer signal while running.

    Use as a context manager around the code to time; afterwards
    ``ref_seconds(t0, t1)`` converts two ``perf_counter`` readings taken
    inside the block into seconds at the reference speed.
    """

    def __init__(self, interval: float = 0.02):
        self.interval = interval
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.speeds: list[float] = []
        self._old = None

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        probe()
        t1 = time.perf_counter()
        self.starts.append(t0)
        self.ends.append(t1)
        self.speeds.append(PROBE_NOMINAL_S / (t1 - t0))

    def __enter__(self) -> "SpeedClock":
        self._old = signal.signal(signal.SIGALRM, self._tick)
        self._tick(signal.SIGALRM, None)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)
        self._tick(signal.SIGALRM, None)
        self._build()

    def _build(self) -> None:
        """Reference time elapsed at each probe's start: between probe i's
        end and probe i+1's start the machine runs at the mean of their two
        speeds; inside a probe no reference time passes."""
        acc = 0.0
        self._at_start = [0.0]
        for i in range(1, len(self.starts)):
            gap = self.starts[i] - self.ends[i - 1]
            acc += gap * 0.5 * (self.speeds[i - 1] + self.speeds[i])
            self._at_start.append(acc)

    def probe_seconds(self) -> float:
        return sum(e - s for s, e in zip(self.starts, self.ends))

    def _ref_at(self, t: float) -> float:
        i = bisect.bisect_right(self.starts, t) - 1
        if i < 0:
            return (t - self.starts[0]) * self.speeds[0]
        if t <= self.ends[i]:
            return self._at_start[i]
        if i + 1 < len(self.starts):
            speed = 0.5 * (self.speeds[i] + self.speeds[i + 1])
        else:
            speed = self.speeds[i]
        return self._at_start[i] + (t - self.ends[i]) * speed

    def ref_seconds(self, t0: float, t1: float) -> float:
        """Seconds at the reference speed between two readings."""
        return self._ref_at(t1) - self._ref_at(t0)

    def probe_time_within(self, t0: float, t1: float) -> float:
        """Wall seconds spent in probes between two readings."""
        lo = bisect.bisect_left(self.ends, t0)
        hi = bisect.bisect_right(self.starts, t1)
        return sum(
            min(self.ends[i], t1) - max(self.starts[i], t0)
            for i in range(lo, hi)
        )
