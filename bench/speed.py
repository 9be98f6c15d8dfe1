"""Machine-speed reference for timing on a shared host.

On a host shared with other tenants the speed of the CPU drifts: the same
catalog pass took from 26 s to 43 s within minutes, with the interpreter
alone on an otherwise idle 2-vCPU machine, and process CPU time drifted with
it.  So every timing the benchmark reports is normalized to a fixed
reference speed.

While a workload runs, a SIGALRM timer interrupts it every
``PROBE_INTERVAL_S`` and runs a fixed reference kernel: exact Gaussian
elimination over ``fractions.Fraction``, the same kind of work as the
library's hot loops.  It uses the standard library only, so a change to
nilform cannot change it.  Probe time is excluded from every measured
interval (``SpeedProbe.clock``).  An interval of length ``t`` whose nearby
probes (within ``WINDOW_S``) took ``p`` seconds on average is reported as
``t * REFERENCE_PROBE_S / p``: seconds on a machine where one probe takes
``REFERENCE_PROBE_S``.  The speed changes within seconds, so each item is
normalized by the probes around it rather than by a whole-run average.  The
mean, not the median, of the probes tracks the integral of 1/speed.
"""

from __future__ import annotations

import bisect
import signal
import statistics
from fractions import Fraction
from time import perf_counter

PROBE_INTERVAL_S = 0.1
WINDOW_S = 0.25
# Duration of one probe on the machine that recorded baseline.json, in a
# fast phase; a fixed scale, so normalized times stay comparable.
REFERENCE_PROBE_S = 0.0015

_MATRIX = [[Fraction((7 * i + 3 * j) % 19 - 9, 1 + (i + j) % 4) for j in range(8)] for i in range(8)]


def reference_kernel():
    """Row-reduce a fixed 8x8 rational matrix; returns its rank."""
    rows = [row[:] for row in _MATRIX]
    n, rank = len(rows), 0
    for col in range(n):
        pivot = next((i for i in range(rank, n) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = 1 / rows[rank][col]
        rows[rank] = [x * inv for x in rows[rank]]
        for i in range(n):
            if i != rank and rows[i][col]:
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


class SpeedProbe:
    """Runs the reference kernel on a timer; a clock that excludes it."""

    def __init__(self):
        self.times = []                  # probe start on the probe-free clock
        self.durations = []
        self._excluded = 0.0
        self._previous = None

    def clock(self):
        """perf_counter minus all time spent in probes."""
        return perf_counter() - self._excluded

    def probe(self, *_signal_args):
        start = perf_counter()
        reference_kernel()
        took = perf_counter() - start
        self.times.append(start - self._excluded)
        self.durations.append(took)
        self._excluded += took

    def factor(self, start, end):
        """Reference speed over the mean speed of the probes around [start, end]."""
        lo = bisect.bisect_left(self.times, start - WINDOW_S)
        hi = bisect.bisect_right(self.times, end + WINDOW_S)
        if lo == hi:                       # no probe nearby: take the closest one
            lo = min(max(lo - 1, 0), len(self.times) - 1)
            hi = lo + 1
        return REFERENCE_PROBE_S / statistics.fmean(self.durations[lo:hi])

    def factor_since(self, index):
        """Reference speed over the mean speed of the probes from `index` on."""
        return REFERENCE_PROBE_S / statistics.fmean(self.durations[index:])

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self.probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
