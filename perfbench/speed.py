"""Host-speed probe, sampled inside every round.

This host's speed swings by up to a factor of two, over windows of a few
seconds to many minutes, and a process's CPU time swings with its wall
time, so no clock alone gives a steady figure.  A daemon thread in each
child runs a fixed CPU-bound probe every ``PERIOD_S`` seconds and records
the probe's own CPU time (``time.thread_time``).  The probe shares the
interpreter lock and the processor with the program, so its samples see the
slowdown the program sees while it runs.  The parent rescales a round's
wall time by ``REFERENCE_PROBE_S / median(samples)``: the time the round
would have taken had one probe cost ``REFERENCE_PROBE_S``, roughly this
host's unloaded speed.
"""

import threading
import time
from math import gcd

PERIOD_S = 0.1
REFERENCE_PROBE_S = 0.001
PROBE_STEPS = 2400
_TOTALS = [0] * 13  # reused by every probe call


def probe():
    """Fixed integer and gcd work, like the program's rational arithmetic.

    It allocates only ints, which the cyclic garbage collector does not
    track, so no collection of the program's heap ever starts on the
    probe's thread and is charged to its clock: a program with a larger
    heap does not make the probe slower.  It builds no Fraction either,
    which traced runs count.
    """
    num, den = 0, 1
    for i in range(1, PROBE_STEPS):
        a, b = i % 7 + 1, i % 11 + 1
        num, den = num * b + a * den, den * b
        g = gcd(num, den)
        num, den = num // g, den // g
        _TOTALS[i % 13] += a
    return num


def timed_probe():
    """CPU seconds of one probe on the calling thread's own clock."""
    t0 = time.thread_time()
    probe()
    return time.thread_time() - t0


class Sampler(threading.Thread):
    """Collects probe CPU times until ``stop`` is called."""

    def __init__(self):
        super().__init__(daemon=True)
        self.samples = []
        self._halt = threading.Event()

    def run(self):
        while not self._halt.wait(PERIOD_S):
            self.samples.append(timed_probe())

    def stop(self):
        self._halt.set()
        self.join()
