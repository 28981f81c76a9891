"""Correct timings for host contention by interleaved calibration.

On a shared host, the same work can take up to twice as long while
neighbours are busy. Some slow spells last fractions of a second,
others a whole run, so two runs of the same code differ by ±20% in
wall time.

While sampling, a SIGALRM handler runs a fixed pure-Python kernel every
``PERIOD_S`` seconds on the measured thread, between the program's own
bytecodes. It first runs the kernel untimed, so that the timed part
starts from warm caches and depends on the host, not on what it
interrupted. The timed kernel is slowed at the same moments as the
program. For an interval of the run:

    corrected = (interval - kernel time inside it)
                * (REFERENCE_KERNEL_S / mean kernel time inside it) ** LOAD_EXPONENT

So ``corrected`` is the interval's time on a reference host where the
kernel takes ``REFERENCE_KERNEL_S``: roughly its time on an idle
2-vCPU Xeon VM. The calibration takes about 1% of the run, and its
time is taken out again.

The program slows more than the kernel when neighbours are busy: the
kernel works in L1 cache, the program does not. On the 2-vCPU Xeon VM
this was built on, over four sets of ten runs per workload, the
interquartile spread of wall times was smallest for exponents between
1.3 and 1.8, and 1.5 was at or near the smallest on every set (1.0
left spreads up to 0.22). A change that makes the program much more or
much less memory-bound can make this exponent less apt.
"""

from __future__ import annotations

import bisect
import signal
import statistics
from time import perf_counter

PERIOD_S = 0.01
WARMUP_ROUNDS = 100
KERNEL_ROUNDS = 400
REFERENCE_KERNEL_S = 80e-6
LOAD_EXPONENT = 1.5


def _kernel(rounds: int) -> float:
    acc = 0.0
    for i in range(rounds):
        acc += (i * 0.5) ** 2 % 7.0
    return acc


class Sampler:
    def __init__(self):
        self.starts: list[float] = []  # tick start
        self.spent: list[float] = []  # whole tick, warm-up included
        self.durations: list[float] = []  # timed kernel only
        self._previous = None

    def _tick(self, signum, frame) -> None:
        warm = perf_counter()
        _kernel(WARMUP_ROUNDS)
        start = perf_counter()
        _kernel(KERNEL_ROUNDS)
        end = perf_counter()
        self.starts.append(warm)
        self.spent.append(end - warm)
        self.durations.append(end - start)

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def window(self, t0: float, t1: float) -> dict:
        """Calibration time, mean kernel time and sample count inside [t0, t1)."""
        lo, hi = bisect.bisect_left(self.starts, t0), bisect.bisect_left(self.starts, t1)
        durations = self.durations[lo:hi]
        return {"calibration_s": sum(self.spent[lo:hi]), "n": len(durations),
                "mean_s": statistics.fmean(durations) if durations else None}


def corrected(seconds: float, window: dict, fallback_mean: float) -> float:
    """Seconds the interval would have taken on the reference host."""
    mean = window["mean_s"] if window["n"] else fallback_mean
    return (seconds - window["calibration_s"]) * (REFERENCE_KERNEL_S / mean) ** LOAD_EXPONENT
