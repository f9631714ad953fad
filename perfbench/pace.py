"""The pace of the machine, sampled with a fixed reference kernel.

Other tenants of the shared reference box slow it by up to 1.6x, in phases
that last from seconds to many minutes; process CPU time slows with wall
time, so it is contention for the cores, not descheduling. A run shorter
than a phase cannot average the phase out, so the benchmark measures the
pace alongside the program and scales every latency to the box's calm pace:

    scaled latency = measured latency * NOMINAL_S / (local kernel time)

The kernel is code of the benchmark's own, so no change to the program
moves it; a program that gets slower by a share reads slower by that share.
While a ``Pace`` is active, SIGALRM runs the kernel every ``interval``
seconds, also in the middle of a long call; the time it takes is recorded
and taken back out of the latency of the call it interrupted.
"""

from __future__ import annotations

import math
import signal
import statistics
import time
from array import array

import numpy as np

KERNEL_ROUNDS = 100
# time of reference_kernel() in the calmest moments seen on the reference box
# (2-core Xeon, Python 3.11, numpy 2.4, BLAS on 1 thread): the 1st percentile
# of a minute of samples. It only sets the scale and must stay fixed.
NOMINAL_S = 0.0019

_MATRIX = np.array(
    [[2.0, 0.3, -0.1, 0.5], [0.3, 1.5, 0.2, -0.4], [-0.1, 0.2, 1.2, 0.1], [0.5, -0.4, 0.1, 1.8]]
)


def reference_kernel() -> float:
    """Fixed work in the program's mix: interpreted arithmetic on 4 x 4 arrays and an SVD."""
    acc = 0.0
    row = _MATRIX[0]
    for i in range(KERNEL_ROUNDS):
        b = _MATRIX + (i * 1e-3) * np.eye(4)
        s = np.linalg.svd(b @ b.T, compute_uv=False)
        z = complex(math.cos(i), math.sin(i)) * (1 + 1e-3j)
        acc += float(s[0]) + abs(z) + float(np.dot(row, b[1])) + float(np.sum(b[:, 2] ** 2))
    return acc


def kernel_seconds() -> float:
    start = time.perf_counter()
    reference_kernel()
    return time.perf_counter() - start


def burst_scale(samples: int = 5) -> float:
    """NOMINAL_S over the median of ``samples`` kernel runs made now."""
    return NOMINAL_S / statistics.median(kernel_seconds() for _ in range(samples))


class Pace:
    """Kernel samples taken on a timer; ``with Pace() as pace:`` arms it."""

    def __init__(self, interval: float = 0.05) -> None:
        self.interval = interval
        self.stamps = array("d")
        self.kernel_s = array("d")
        # total time spent in the kernel; a caller subtracts what fell inside its clock
        self.spent = 0.0
        self._previous = None

    def _sample(self, signum=None, frame=None) -> None:
        start = time.perf_counter()
        reference_kernel()
        end = time.perf_counter()
        self.stamps.append(end)
        self.kernel_s.append(end - start)
        self.spent += end - start

    def __enter__(self) -> "Pace":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        # one sample at least, even for a run shorter than the interval
        self._sample()

    def scale(self, start: float, end: float) -> float:
        """NOMINAL_S over the median kernel time of the samples taken during
        [start, end], or of the three nearest ones if fewer fell inside.

        The pace changes within a second, so a wider window tracks it worse:
        on an integrator run the scaled repeats of a call varied by 4.9%
        (coefficient of variation) with this rule, 6.3% with a window of
        +-0.5 s around the call and 9.0% unscaled."""
        stamps = np.frombuffer(self.stamps)
        kernel = np.frombuffer(self.kernel_s)
        lo, hi = np.searchsorted(stamps, [start, end])
        if hi - lo >= 3:
            return NOMINAL_S / float(np.median(kernel[lo:hi]))
        near = np.arange(max(0, lo - 3), min(len(stamps), hi + 3))
        near = near[np.argsort(np.abs(stamps[near] - (start + end) / 2))[:3]]
        return NOMINAL_S / float(np.median(kernel[near]))
