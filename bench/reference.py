"""A fixed reference computation that measures how fast the host runs now.

The host is shared, and its speed moves under the benchmark: the same srlab
pass takes up to 1.6x longer from one minute to the next, and CPU time
tracks wall time, so the loss is contention for the core, not waiting.  So
while a pass runs, a ``Sampler`` runs this kernel every ``PERIOD`` seconds of
wall time, from a ``SIGALRM`` timer whose handler runs between two Python
bytecodes of whatever srlab is doing.  The samples are evenly spaced in time,
however long each operation is, so a drift inside one 40 s solve is seen as
well as one between operations.  With host speed ``1/k(t)`` for a kernel
time ``k(t)``, the work a pass of length ``T`` did is ``T * mean(1/k)``
kernel runs; that is the pass's time in ``ref`` units.

The kernel is the benchmark's own code and never calls srlab, so no change
to srlab moves it.  Its mix follows srlab's costs: a Python loop of
tridiagonal eliminations over the rows of a 257-point line set (the
rectangle solver's Thomas sweeps), ``np.ix_`` gathers and scatters on a
257 x 257 grid (the red-black line updates), and a scalar float loop (the
state algebra's scans).
"""

import math
import signal
import time

import numpy as np

_N = 257
_GRID = np.random.default_rng(0).random((_N, _N))

# seconds of wall time between the end of one sample and the start of the next
PERIOD = 0.25


def kernel_seconds() -> float:
    """Wall time of one run of the reference kernel (about 12 ms)."""
    t0 = time.perf_counter()
    rhs = _GRID[:, ::2].copy()
    c = np.empty_like(rhs)
    d = np.empty_like(rhs)
    c[0] = -0.25
    d[0] = rhs[0] / 4.0
    for i in range(1, _N):
        m = 4.0 + c[i - 1]
        c[i] = -1.0 / m
        d[i] = (rhs[i] + d[i - 1]) / m
    for i in range(_N - 2, -1, -1):
        d[i] -= c[i] * d[i + 1]
    rows = np.arange(1, _N - 1)
    cols = np.arange(1, _N - 1, 2)
    v = _GRID.copy()
    for _ in range(4):
        v[np.ix_(rows, cols)] += 0.25 * (v[np.ix_(rows - 1, cols)] + v[np.ix_(rows + 1, cols)]
                                         - 2.0 * v[np.ix_(rows, cols)])
    s = 0.0
    for k in range(1, 15000):
        x = 1.0 + k * 1e-5
        s += math.sqrt(x) / (1.0 + x * x)
    return time.perf_counter() - t0


class Sampler:
    """Kernel samples at the start and end of a block and, when ``timed``,
    every ``PERIOD`` seconds inside it.

    A traced pass samples only at its ends, so no kernel time lands inside a
    span.  Must be used from the main thread (``SIGALRM`` handlers run there).
    The handler stays installed after the block and ignores a signal that
    was already pending when the timer was stopped.
    """

    def __init__(self, timed: bool):
        self.timed = timed
        self.samples = []
        self._active = False

    def _tick(self, signum, frame):
        if self._active:
            self.samples.append(kernel_seconds())
            signal.setitimer(signal.ITIMER_REAL, PERIOD)

    def __enter__(self):
        self.samples.append(kernel_seconds())
        if self.timed:
            signal.signal(signal.SIGALRM, self._tick)
            self._active = True
            signal.setitimer(signal.ITIMER_REAL, PERIOD)
        return self

    def __exit__(self, *exc):
        self._active = False
        if self.timed:
            signal.setitimer(signal.ITIMER_REAL, 0)
        self.samples.append(kernel_seconds())
        return False

    def work(self, seconds: float) -> float:
        """Kernel runs the host could have done in ``seconds`` of this block."""
        return seconds * sum(1.0 / k for k in self.samples) / len(self.samples)
