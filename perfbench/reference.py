"""Reference kernel: a fixed yardstick for the speed of the host's core.

The benchmark runs on a few cores of a shared host whose speed drifts by
20-50% over seconds to minutes. Every timed operation and set-up probe is
measured next to runs of this kernel in the same process, and the time is
expressed as a multiple of the kernel's time, then scaled by NOMINAL_S. A
timing thus reads in seconds on a core that runs the kernel in NOMINAL_S,
whatever the host's speed at that moment.

The kernel uses nothing from the program under test, so a change to the
program moves only the numerator. Its instruction mix is that of the
program's inner loops: Python float arithmetic around small numpy vector
operations, as in one NGN step on a 4-dimensional least-squares problem.
"""

from __future__ import annotations

import time

import numpy as np

# the kernel's time on an idle core of a 2-vCPU Intel Xeon VM (Python 3.11.7,
# numpy 2.4.6), rounded; only a scale, so that normalised timings read in seconds
NOMINAL_S = 0.0125
ITERATIONS = 4000
_ROWS = np.random.default_rng(0).standard_normal((16, 4))


def kernel(iterations: int = ITERATIONS) -> float:
    x = np.zeros(4)
    total = 0.0
    for i in range(iterations):
        a = _ROWS[i & 15]
        r = float(a @ x) - 1.0
        g = r * a
        f = 0.5 * r * r + 1e-3
        gamma = 0.1 / (1.0 + 0.1 * float(g @ g) / (2.0 * f))
        x = x - gamma * g
        total += gamma
    return total


def kernel_s() -> float:
    """Wall time of one run of the kernel."""
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


def normalised(seconds: float, kernel_seconds: float) -> float:
    """`seconds` measured where the kernel took `kernel_seconds`, at nominal speed."""
    return seconds / kernel_seconds * NOMINAL_S


class Yardstick:
    """Normalises timings by the kernel runs just before and just after them."""

    def __init__(self):
        self.before = kernel_s()
        self.samples = [self.before]

    def normalise(self, seconds: float) -> float:
        """`seconds`, just measured, in seconds on a core of nominal speed."""
        after = kernel_s()
        self.samples.append(after)
        around = (self.before + after) / 2
        self.before = after
        return normalised(seconds, around)
