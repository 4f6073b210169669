"""Samples the core's speed while an operation is timed.

On a shared host the speed of a core drifts by tens of percent over
seconds to minutes, as other tenants load the machine.  While an operation
runs, a real-time interval timer interrupts the main thread every
``INTERVAL_S``; the handler runs a fixed probe of a few hundred
microseconds and times it.  A probe also runs just before and just after
the operation.  The operation's time is its wall time minus the time spent
in probes, and the mean probe time says how fast the core ran meanwhile:
dividing the one by the other cancels the drift.  The probe uses no
fodelab code, so a change to fodelab moves the ratio as it moves wall time.

The probe mixes the kinds of work fodelab does: an interpreted Python loop,
numpy calls on tiny arrays and one vectorised numpy pass over a small
block.  Its inputs are fixed, so every probe does the same work.
"""
import signal
import time

import numpy as np

INTERVAL_S = 0.01
# Seconds of one probe on a quiet core of the machine the bounds were set
# on (2-vCPU Xeon under KVM, Python 3.11, numpy 2.4, one BLAS thread).
NOMINAL_PROBE_S = 0.00022


class SpeedSampler:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._small = rng.random((4, 4))
        self._vector = rng.random(12)
        self._block = rng.random((100, 40))
        self._starts = []
        self._spans = []
        self.probe_s = None  # mean probe time of the last timed call

    def _probe(self):
        total = 0
        for i in range(1500):
            total += i * i % 7
        a, b = self._small, self._vector
        for _ in range(20):
            a @ a
            d = b.sum() + np.dot(b, b)
            np.abs(b - d).max()
        block = self._block * 1.0001
        (block * block).sum(axis=1)
        np.exp(-block)
        return total

    def _timed_probe(self, *_):
        start = time.perf_counter()
        self._probe()
        self._starts.append(start)
        self._spans.append(time.perf_counter() - start)

    def time(self, fn):
        """Call ``fn``; returns its result and its wall time net of probes."""
        self._starts.clear()
        self._spans.clear()
        self._timed_probe()
        previous = signal.signal(signal.SIGALRM, self._timed_probe)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            start = time.perf_counter()
            result = fn()
            end = time.perf_counter()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
        inside = sum(span for s, span in zip(self._starts, self._spans) if start <= s < end)
        self._timed_probe()
        self.probe_s = sum(self._spans) / len(self._spans)
        return result, end - start - inside


def normalised(wall, probe_s):
    """Wall time rescaled to a core that runs the probe in its nominal time."""
    return wall * NOMINAL_PROBE_S / probe_s
