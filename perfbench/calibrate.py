"""Speed of the core a command runs on, and its times at a fixed speed.

On a shared host the speed of a core changes by half and more within
seconds, as other tenants come and go, so two runs of the same command can
differ by 40% in wall time. The benchmark therefore times a fixed
pure-Python kernel every SAMPLE_PERIOD_S seconds inside the command's own
process (SpeedSampler) and rescales each stretch of the command's time
between two samples to the reference speed, the speed at which one kernel
run takes REF_KERNEL_S (reference_seconds). On the shared two-core x86-64
VM the benchmark was tuned on, that is about the speed of its fast
moments. Time spent in the kernel itself is left out.

The kernel does what the library does most: dict lookups on tuple keys,
small-integer arithmetic and Fraction arithmetic. It does not use the
library, so a change to the library cannot change it.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from fractions import Fraction
from typing import List, Sequence, Tuple

# seconds one kernel run takes at the reference speed
REF_KERNEL_S = 0.0022
SAMPLE_PERIOD_S = 0.05


def clock() -> float:
    # CLOCK_MONOTONIC is system-wide, so a child's samples compare with the
    # parent's timestamps
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def kernel(n: int = 4000) -> Fraction:
    table = {}
    acc = Fraction(0)
    for a in range(n):
        key = (a % 61, a % 53, a % 7)
        table[key] = table.get(key, 0) + (a * a) % 1000003
        if a % 16 == 0:
            acc += Fraction(a % 13, 12)
    return acc + len(table)


class SpeedSampler:
    """Runs the kernel now, at stop, and on every SIGALRM in between.

    samples: (start, duration) of each kernel run, in clock() seconds.
    """

    def __init__(self, period: float = SAMPLE_PERIOD_S) -> None:
        self.period = period
        self.samples: List[Tuple[float, float]] = []
        self._busy = False

    def sample(self, *_signal_args) -> None:
        if self._busy:
            return
        self._busy = True
        # a collection of the command's heap must not land in a sample; it
        # runs in the command's own time once gc is back on
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = clock()
            kernel()
            self.samples.append((t0, clock() - t0))
        finally:
            if enabled:
                gc.enable()
            self._busy = False

    def start(self) -> None:
        self.sample()  # warm-up: the first run pays for lazy set-up
        self.samples.clear()
        self.sample()
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.sample()


def reference_seconds(samples: Sequence[Sequence[float]], a: float, b: float) -> float:
    """Seconds [a, b] would have taken at the reference speed.

    Between two samples the speed is the mean of theirs; before the first
    and after the last it is theirs. Each sample's duration is the median
    of it and its neighbours, so one disturbed kernel run moves nothing.
    Time inside the kernel counts as zero.
    """
    if not samples:
        raise ValueError("no speed samples")
    durations = [d for _, d in samples]
    smooth = [
        statistics.median(durations[max(0, i - 1) : i + 2]) for i in range(len(durations))
    ]
    speed = [REF_KERNEL_S / d for d in smooth]

    def part(lo: float, hi: float) -> float:
        return max(0.0, min(b, hi) - max(a, lo))

    total = part(float("-inf"), samples[0][0]) * speed[0]
    for i in range(len(samples) - 1):
        gap_start = samples[i][0] + samples[i][1]
        total += part(gap_start, samples[i + 1][0]) * (speed[i] + speed[i + 1]) / 2
    last_end = samples[-1][0] + samples[-1][1]
    return total + part(last_end, float("inf")) * speed[-1]
