"""Host-speed probe: time a fixed reference kernel at regular intervals
while a workload runs, to express its wall time in seconds at a fixed
reference speed.

A shared host changes the speed of a vCPU by a third or more in phases of
seconds to minutes, which no number of iterations averages away.  The probe
samples that speed inside the running process: a SIGALRM handler times the
fixed kernel every ``PERIOD_S`` seconds (between two bytecodes of whatever the
workload is doing, so a long numpy call only delays it).  A span of wall
time is then counted interval by interval, each interval divided by the
probe time measured at its ends, with the probes' own time taken out, and
multiplied by ``REFERENCE_S``: the seconds the span would have taken on a
host that runs the kernel in ``REFERENCE_S``.
"""

from __future__ import annotations

import signal
import time

import numpy as np

PERIOD_S = 0.25
# the kernel's time in the fast phases of a 2-vCPU Xeon (2.1 GHz) VM: it
# sets the scale of the reference seconds and must not change between the
# commits being compared
REFERENCE_S = 0.015


def _kernel_inputs():
    rng = np.random.default_rng(12345)
    a = rng.standard_normal((64, 16, 16)) + 1j * rng.standard_normal(
        (64, 16, 16))
    return a, a @ a.conj().transpose(0, 2, 1)


class SpeedProbe:
    """Context manager sampling the reference kernel's time while active.

    ``samples`` holds the ``(start, duration)`` pairs, in ``perf_counter``
    time, of the last ``with`` block: one on entry, one every ``PERIOD_S``
    seconds, one on exit.
    """

    REPS = 4

    def __init__(self):
        self.samples: list = []
        self._a, self._h = _kernel_inputs()
        self._saved = None

    def kernel(self) -> float:
        """One reference measurement: small batched eigh and matmul plus a
        pure-Python loop, the mix a drop's refresh runs.  Returns seconds."""
        t0 = time.perf_counter()
        for _ in range(self.REPS):
            np.linalg.eigh(self._h)
            self._a @ self._a
            s = 0
            for i in range(300):
                s += i * i
        return time.perf_counter() - t0

    def speed(self) -> float:
        """Reference speed now: REFERENCE_S over the mean time of three
        kernel runs after a warm-up run."""
        self.kernel()
        return REFERENCE_S * 3 / sum(self.kernel() for _ in range(3))

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        self.samples.append((t0, self.kernel()))

    def __enter__(self):
        self.samples = []
        self.kernel()                                   # warm up
        self._tick(None, None)
        self._saved = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._saved)
        self._tick(None, None)
        return False

    def reference_seconds(self, start: float, end: float) -> tuple:
        """(net wall seconds, reference seconds) of the span [start, end].

        The span is cut at the probes inside it; each piece, less the
        probe time inside it, is divided by the mean of the probe times at
        its two ends (the nearest probe where the span reaches past the
        first or last) and multiplied by REFERENCE_S.
        """
        pts = [(t, d) for t, d in self.samples if start < t < end]
        before = [s for s in self.samples if s[0] <= start]
        after = [s for s in self.samples if s[0] >= end]
        left = before[-1] if before else (pts[0] if pts else after[0])
        right = after[0] if after else (pts[-1] if pts else before[-1])
        edges = [(start, left[1], 0.0)] + \
            [(t, d, d) for t, d in pts] + [(end, right[1], 0.0)]
        net = units = 0.0
        for (t0, d0, probe), (t1, d1, _) in zip(edges, edges[1:]):
            piece = t1 - t0 - probe
            net += piece
            units += piece / (0.5 * (d0 + d1))
        return net, units * REFERENCE_S
