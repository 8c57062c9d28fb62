"""A fixed reference loop that tracks how fast the machine is running now.

On a shared VM the same pass can take 1.6 times longer from one minute
to the next, because of load the benchmark cannot see.  The benchmark
times this loop while it measures, and rescales each time it reports to a
machine on which the loop takes ``NOMINAL_S``.  The loop is a 15-point
Gauss-Kronrod sum written in plain Python, so it exercises the
interpreter and ``math`` calls the way fraceq's quadrature does.  It
belongs to the benchmark, so a change to fraceq never changes it.
"""

from __future__ import annotations

import math
import signal
import time

NOMINAL_S = 1e-3  # reported times are seconds on a machine where the loop takes this
INTERVAL_S = 0.05  # one loop every 50 ms while a Sampler is active (about 2% of the time)

_X = (0.991455371120813, 0.949107912342759, 0.864864423359769, 0.741531185599394,
      0.586087235467691, 0.405845151377397, 0.207784955007898)
_W = (0.022935322010529, 0.063092092629979, 0.104790010322250, 0.140653259715525,
      0.169004726639267, 0.190350578064785, 0.204432940075298)


def _f(x: float) -> float:
    return math.exp(-x) * math.sqrt(x) if x > 0.0 else 0.0


def reference_loop() -> float:
    """300 Kronrod panels of exp(-x) sqrt(x) on [0, 3]."""
    total = 0.0
    for k in range(300):
        center = 0.01 * k + 0.005
        acc = 0.209482141084728 * _f(center)
        for x, w in zip(_X, _W):
            acc += w * (_f(center - 0.005 * x) + _f(center + 0.005 * x))
        total += 0.005 * acc
    return total


def time_loop() -> float:
    start = time.perf_counter()
    reference_loop()
    return time.perf_counter() - start


class Sampler:
    """Times the loop from a SIGALRM handler every INTERVAL_S while active.

    The handler runs between bytecodes of whatever the main thread is
    doing, so the samples follow the machine's speed through a pass; the
    time they take is subtracted from the pass.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._previous = None

    def _tick(self, signum, frame) -> None:
        self.samples.append(time_loop())

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
