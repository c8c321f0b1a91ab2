"""Reference probe that measures how fast the machine runs right now.

On a shared host the same work takes up to ~1.8x longer from one minute
(or second) to the next: neighbours on the host slow the core down.  The
benchmark therefore times a fixed reference next to the work and reports
every time at a nominal speed, the speed at which the reference takes
exactly NOMINAL_NS:

    reported = raw * NOMINAL_NS / probe

The reference is small-array numpy plus interpreter work, the profile of
kmln's own code; it belongs to the benchmark, so no change to kmln moves
it.  On a 2-vCPU Xeon VM, raw compose time over 4-second windows ranged
254-421 us while the normalized time stayed within 2 %.
"""

from __future__ import annotations

import signal
from time import perf_counter_ns

import numpy as np

NOMINAL_NS = 1_000_000

_U = np.array([1, 2, 3, 4], dtype=complex)
_V = _U[::-1].copy()


def reference():
    """The fixed reference work, about 1 ms on a 2-vCPU Xeon VM."""
    for _ in range(30):
        u = np.asarray(_U, dtype=complex).copy()
        u[0] * _V[0] + u[1:] @ _V[1:]
        u[0] * _V[1:] + _V[0] * u[1:] + 1j * np.cross(u[1:], _V[1:])
        sum(k * k for k in range(20))


def probe_ns(repeats=3) -> int:
    """Fastest of ``repeats`` timings of the reference, in ns; the minimum
    drops probes hit by an interrupt."""
    best = None
    for _ in range(repeats):
        t0 = perf_counter_ns()
        reference()
        dt = perf_counter_ns() - t0
        best = dt if best is None else min(best, dt)
    return best


def factor(*probes) -> float:
    """Scale from raw time to nominal-speed time for the given probes."""
    return NOMINAL_NS / (sum(probes) / len(probes))


class Sampler:
    """Runs the reference from SIGALRM every ``interval`` seconds of wall
    time, for work that cannot be split into blocks (a whole process).

    The probes take time from the work they interrupt; ``probe_ns`` is
    their total wall, to be subtracted from the raw time.  stop() adds one
    last probe, so work shorter than ``interval`` still gets one.
    """

    def __init__(self, interval=0.1):
        self.interval = interval
        self.samples = []
        self.probe_ns = 0

    def _probe(self, signum, frame):
        t0 = perf_counter_ns()
        self.samples.append(probe_ns())
        self.probe_ns += perf_counter_ns() - t0

    def start(self):
        signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._probe(None, None)

    def factor(self) -> float:
        """Mean scale over the probes, each standing for an equal slice of
        wall time."""
        return sum(NOMINAL_NS / s for s in self.samples) / len(self.samples)
