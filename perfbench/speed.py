"""Machine-speed probe: rescales measured times to a fixed reference speed.

On a shared virtual machine the same Python code runs up to twice as slow
for stretches of seconds to minutes, with no steal time shown in
``/proc/stat`` and process CPU time equal to wall time: the other tenants
slow the processor itself.  A best-of-N over a run does not filter that
out when a whole run is slow, so raw times of one commit move by a third
from one set of runs to the next.

``SpeedProbe`` measures the machine's speed while the benchmark runs.  A
``SIGALRM`` timer fires every ``INTERVAL_S``; its handler runs ``kernel``,
a fixed stretch of pure-Python work (tuples, dicts, small integers and
``Fraction`` arithmetic, as the program does), and records when it ran
and how long it took.  The handler's time is left out of the operation it
interrupted.  An operation's time is then rescaled by the speed measured
around it: multiplied by ``REF_KERNEL_S`` over the mean kernel time of the
samples taken during the operation and ``WINDOW_S`` either side of it.
``REF_KERNEL_S`` is the kernel's time on an idle 2.1 GHz Xeon, so a
rescaled time reads as the seconds the operation takes there.  The program
does not touch the kernel, so a change to the program moves its rescaled
times in full.
"""

from __future__ import annotations

import signal
from array import array
from bisect import bisect_left, bisect_right
from fractions import Fraction
from time import perf_counter

#: Seconds the kernel takes at the reference speed.
REF_KERNEL_S = 2.0e-3

#: Seconds between two kernel samples.
INTERVAL_S = 0.025

#: Samples this many seconds before and after an operation count for it.
WINDOW_S = 0.1


def kernel():
    """A fixed amount of pure-Python work; its result is never used."""
    seen = {}
    total = Fraction(0)
    for i in range(1, 400):
        key = tuple((i * j) % 7 for j in range(6))
        seen[key] = seen.get(key, 0) + 1
        total += Fraction(i % 13 + 1, i % 11 + 2)
    m = [[(i + j) % 5 for j in range(6)] for i in range(6)]
    for _ in range(30):
        m = [[sum(m[i][k] * m[k][j] for k in range(6)) % 97 for j in range(6)] for i in range(6)]
    return total, len(seen), m


class SpeedProbe:
    """Samples the kernel's time while it is entered; see the module doc."""

    def __init__(self):
        self.at = array("d")  # start of each sample
        self.took = array("d")  # its kernel time
        self.paused = 0.0  # seconds spent in the handler so far

    def _sample(self, signum, frame):
        start = perf_counter()
        kernel()
        end = perf_counter()
        self.at.append(start)
        self.took.append(end - start)
        self.paused += perf_counter() - start

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def time(self, fn):
        """Run ``fn()``; returns its result and its (start, end, seconds),
        where seconds leaves out the samples taken meanwhile."""
        paused = self.paused
        start = perf_counter()
        result = fn()
        end = perf_counter()
        return result, (start, end, end - start - (self.paused - paused))

    def rescale(self, span):
        """The seconds of ``span`` at the reference speed."""
        start, end, seconds = span
        lo = bisect_left(self.at, start - WINDOW_S)
        hi = bisect_right(self.at, end + WINDOW_S)
        took = self.took[lo:hi] or self.took
        return seconds * REF_KERNEL_S * len(took) / sum(took)
