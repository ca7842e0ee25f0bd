"""Speed probe: a fixed piece of reference work, run from a timer during an
untraced run, so that the run's times can be read at one reference speed
of the host.

On a shared host the speed of a core flips between a fast and a slow state
within seconds and drifts over minutes, and every kind of work moves with
it. The probe mixes the kinds of work the program does: interpreted Python,
dense BLAS, solves with sparse LU factors of the size the time steppers
use, and a pass over an array larger than a core's private caches. It
depends on numpy and scipy only, never on the program, so a change to the
program leaves it alone.
"""

from __future__ import annotations

import signal
import time

import numpy as np
import scipy.sparse
from scipy.sparse.linalg import splu  # bound before any tracer patches it

# Probe duration that defines the reference speed, about the probe's mean
# on a 2-core x86_64 host (SkylakeX OpenBLAS kernels, 1 BLAS thread): a
# second of wall time during which the probe takes `d` counts as
# `NOMINAL_S / d` seconds at reference speed.
NOMINAL_S = 4.0e-3

# Wall time between two probe runs.
INTERVAL_S = 0.25

# A gap between two probes longer than this many intervals means a long
# compiled call held the timer back.
BLOCKED = 3

# Timed repetitions per probe; the fastest one counts, so an interrupt
# inside one repetition does not count as a slow host.
REPEATS = 2


class SpeedProbe:
    """Calling the probe runs the reference work `REPEATS` times and
    returns the fastest duration in seconds."""

    def __init__(self):
        rng = np.random.default_rng(20250417)
        self._a = rng.standard_normal((200, 200))
        self._b = rng.standard_normal((200, 200))
        # 70 x 70 grid Laplacian: L and U hold about 275k nonzeros, like
        # the factors the program solves with at each time step
        m = 70
        lap = scipy.sparse.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(m, m))
        eye = scipy.sparse.identity(m)
        self._lu = splu((scipy.sparse.kron(lap, eye)
                         + scipy.sparse.kron(eye, lap)).tocsc())
        self._rhs = rng.standard_normal(m * m)
        self._stream = rng.standard_normal(1 << 19)  # 4 MiB
        self._out = np.empty_like(self._stream)
        for _ in range(10):  # warm caches and lazy imports
            self()

    def _work(self) -> None:
        acc = 0.0
        for k in range(8000):
            acc += k * 0.5
        for _ in range(3):
            self._a @ self._b
        for _ in range(3):
            self._lu.solve(self._rhs)
        np.multiply(self._stream, 1.000001, out=self._out)

    def __call__(self) -> float:
        best = float("inf")
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            self._work()
            best = min(best, time.perf_counter() - t0)
        return best


class ProbeSampler:
    """While installed, runs `probe` from a SIGALRM timer every `interval_s`
    of wall time, keeping when each probe ran in `times` and how long it
    took in `durations`.

    The handler runs in the main thread between bytecodes, so a probe waits
    for a long call into a compiled kernel to return. `now` is
    `time.perf_counter` minus the time spent in the handler, so intervals
    timed with it hold no probe runs; `times` are on that clock.
    """

    def __init__(self, probe, interval_s: float = INTERVAL_S):
        self._probe = probe
        self._interval = interval_s
        self._previous = None
        self._busy = False
        self.times = []
        self.durations = []
        self.paused_s = 0.0

    def _sample(self) -> None:
        t0 = time.perf_counter()
        self.times.append(t0 - self.paused_s)
        self.durations.append(self._probe())
        self.paused_s += time.perf_counter() - t0

    def _handler(self, signum, frame) -> None:
        if not self._busy:
            self._busy = True
            try:
                self._sample()
            finally:
                self._busy = False

    def now(self) -> float:
        while True:
            paused = self.paused_s
            t = time.perf_counter()
            if paused == self.paused_s:  # no probe ran in between
                return t - paused

    def __enter__(self):
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, self._interval, self._interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def scaled_clock(self):
        """A function from a time on the `now` clock to the same time
        counted at reference speed.

        Between two probes the clock runs `NOMINAL_S / d` times as fast as
        wall time, with `d` the mean of the two durations. Where a long
        compiled call held the timer back for more than `BLOCKED` intervals,
        the two probes say little about the time between them, and `d` is
        the mean duration of every probe of the run, as it is before the
        first probe and after the last.
        """
        t = np.asarray(self.times)
        d = np.asarray(self.durations)
        gaps = np.diff(t)
        mean_rate = NOMINAL_S / d.mean()
        rate = np.where(gaps > BLOCKED * self._interval, mean_rate,
                        NOMINAL_S / (0.5 * (d[:-1] + d[1:])))
        at_probe = np.concatenate([[0.0], np.cumsum(gaps * rate)])

        def scaled(x: float) -> float:
            k = int(np.searchsorted(t, x, side="right")) - 1
            if k < 0:
                return (x - t[0]) * mean_rate
            if k >= len(rate):
                return at_probe[-1] + (x - t[-1]) * mean_rate
            return at_probe[k] + (x - t[k]) * rate[k]

        return scaled
