"""Host speed sampling: scale a measured time to a reference host speed.

On a shared host the processor's speed drifts by up to 1.7x over stretches
of seconds to minutes, from load outside the process (the process's CPU time
tracks its wall time, so it is not waiting; it runs slower).  A run of the
benchmark cannot avoid that, but it can measure it at the same moment: while
the jobs of a pass run, a wall-clock timer interrupts them every
``INTERVAL_S`` and times a fixed probe of stdlib work of the kind the
program does (Fraction arithmetic, dicts keyed by tuples, big-integer gcd).

A stretch of program time between two probes is scaled by REF_PROBE_S over
the probe time there (the median of the neighbouring probes, so one
preempted probe does not count).  The sum is the time the same work would
take at the reference speed; the probes' own time is taken out of it.  The
probe runs no crprolong code, so a change to the program moves the scaled
time exactly as it moves the wall time.
"""

import signal
import statistics
import time
from fractions import Fraction
from math import gcd

INTERVAL_S = 0.2
# the probe's median time on the reference machine (2-core Linux VM,
# Python 3.11) when the host runs fast; it only sets the unit
REF_PROBE_S = 0.0075

_ZERO = Fraction(0)
_BIG = 3 ** 160


def probe():
    acc = {}
    for i in range(3000):
        key = (i % 23, i % 17)
        acc[key] = acc.get(key, _ZERO) + Fraction(i % 11 + 1, i % 7 + 1)
    g = 0
    for i in range(1, 2000):
        g = gcd(g + _BIG * i, _BIG - i)
    return len(acc) + g


class Sampler:
    """Times ``probe`` every INTERVAL_S between start() and stop().

    ``samples`` holds (start, end) perf_counter pairs of every probe.
    """

    def __init__(self):
        self.samples = []
        self._old = None

    def tick(self, signum=None, frame=None):
        t0 = time.perf_counter()
        probe()
        self.samples.append((t0, time.perf_counter()))

    def start(self):
        self._old = signal.signal(signal.SIGALRM, self.tick)
        self.tick()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old)
        self.tick()

    def probe_time(self, a, b):
        """Seconds spent in probes within [a, b]."""
        return sum(min(e, b) - max(s, a) for s, e in self.samples if e > a and s < b)

    def scaled(self, a, b):
        """Program time in [a, b], probes taken out, scaled to REF_PROBE_S."""
        durs = [e - s for s, e in self.samples]
        total = 0.0
        for i in range(len(self.samples) - 1):
            lo, hi = self.samples[i][1], self.samples[i + 1][0]
            seg = min(hi, b) - max(lo, a)
            if seg <= 0:
                continue
            near = durs[max(0, i - 1):i + 3]
            total += seg * REF_PROBE_S / statistics.median(near)
        return total
