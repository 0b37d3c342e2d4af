"""Timings at the host's reference speed.

The host's speed swings by up to a quarter over seconds to minutes,
whatever the benchmark does, and process CPU time swings with it.  So every
timed op and set-up is measured against a probe: a fixed computation of the
benchmark's own (Python loops, small complex einsums and an SVD, as in
modfactor's hot paths) that no change to modfactor can speed up.  The probe
runs BRACKET_REPEATS times between timed intervals, and once every
INTERVAL_S inside them, from a SIGALRM handler in the main thread; its time
inside an interval is taken out of the interval's time.  An interval's
time at the reference speed is its raw time times REFERENCE_S over the
median probe time in and around it.  REFERENCE_S is a probe time typical
of the machine of NOTES.md.
"""

from __future__ import annotations

import signal
import statistics
import time
from contextlib import contextmanager

import numpy as np

REFERENCE_S = 0.0041
BRACKET_REPEATS = 3
INTERVAL_S = 0.1

_rng = np.random.default_rng(12345)
_M = _rng.standard_normal((3, 24, 24)) + 1j * _rng.standard_normal((3, 24, 24))
_S = _rng.standard_normal((40, 12)) + 1j * _rng.standard_normal((40, 12))


def _kernel() -> None:
    d = {}
    for i in range(1500):
        d[i % 61] = d.get(i % 61, 0) + i * i
    acc = _M[0]
    for _ in range(15):
        acc = np.einsum("ab,kbc->kac", acc, _M).sum(axis=0) / 100.0
    np.linalg.svd(_S, full_matrices=False)


def probe() -> float:
    """Seconds one run of the probe kernel takes now."""
    start = time.perf_counter()
    _kernel()
    return time.perf_counter() - start


class HostClock:
    """Times a sequence of intervals, with the probe samples of each."""

    def __init__(self):
        self.raw = []  # seconds of each interval, probes inside taken out
        self.samples = []  # probe seconds in and around each interval
        self._last = self._bracket()
        self._inside = None  # probe seconds of the running interval
        self._busy = 0.0

    @staticmethod
    def _bracket() -> list:
        return [probe() for _ in range(BRACKET_REPEATS)]

    def _tick(self, signum, frame) -> None:
        inside = self._inside
        if inside is None:
            return  # the interval has ended, or a tick is already probing
        self._inside = None
        start = time.perf_counter()
        inside.append(probe())
        self._busy += time.perf_counter() - start
        self._inside = inside

    @contextmanager
    def timed(self):
        """Time the body as the next interval."""
        self._inside, self._busy = [], 0.0
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        start = time.perf_counter()
        try:
            yield
        finally:
            # stop ticks first: a tick that ran before this is inside both
            # the elapsed time and the busy time
            inside, self._inside = self._inside, None
            elapsed = time.perf_counter() - start
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, previous)
            after = self._bracket()
            self.raw.append(elapsed - self._busy)
            self.samples.append(self._last + inside + after)
            self._last = after

    def speeds(self) -> list:
        """Host speed in each interval: REFERENCE_S over its median probe."""
        return [REFERENCE_S / statistics.median(s) for s in self.samples]

    def seconds(self) -> list:
        """Each interval's time at the reference speed."""
        return [r * v for r, v in zip(self.raw, self.speeds())]
