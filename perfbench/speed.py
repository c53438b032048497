"""Speed of the machine, sampled inside the measured process.

The host this benchmark runs on may change its speed by tens of percent
within seconds, and a second core does not see the same change.  So the
process that runs a workload also times a fixed calibration sample: a
few at start and after set-up, and one every ``PERIOD_S`` of its CPU
time, from a ``SIGVTALRM`` handler.  The mean sample time over an
interval is the speed the workload had in that interval, and
``NOMINAL_US / mean`` is the factor that scales a time measured in it
to the reference speed, at which one sample takes ``NOMINAL_US``.

The sample is pure Python of the kind the workloads spend their time on
(``Fraction`` arithmetic, big-integer gcds, function calls, dict
traffic) and never touches ``looptl``, so a change to the package cannot
move it.  It runs with the cyclic garbage collector off, so it never
pays for a collection, whose cost would depend on the workload's heap,
and the objects it makes are freed before it returns.  Its cost, about
3% of the CPU time, is subtracted from the times it falls in.
"""

import gc
import signal
import time
from fractions import Fraction
from math import gcd

PERIOD_S = 0.025
NOMINAL_US = 600.0
EXPLICIT = 8

_WORDS = [(i * 2654435761 + 97) % (1 << 61) | 1 for i in range(64)]
_FRACTIONS = [Fraction(i % 7 + 1, i % 5 + 2) for i in range(32)]
_TABLE = dict.fromkeys(range(1024), 0)


def _mix(a, b, i):
    return (a * b) // gcd(a * b + i, a + b)


def _sample():
    enabled = gc.isenabled()
    gc.disable()
    try:
        acc = 0
        for i in range(140):
            a, b = _WORDS[i & 63], _WORDS[(i * 7) & 63]
            acc = (acc + _mix(a, b, i)) % 1000003
            _TABLE[acc & 1023] += 1
            if not i & 3:
                f, g = _FRACTIONS[i & 31], _FRACTIONS[(i * 5) & 31]
                acc += ((f * g - f / g) / (f + g)).denominator
        return acc
    finally:
        if enabled:
            gc.enable()


class Sampler:
    """Calibration samples of the current process, from ``start()`` on."""

    def __init__(self):
        self.count = 0
        self.total_ns = 0

    def sample(self, times=1):
        for _ in range(times):
            t0 = time.perf_counter_ns()
            _sample()
            self.total_ns += time.perf_counter_ns() - t0
            self.count += 1

    def _on_tick(self, signum, frame):
        self.sample()

    def start(self):
        self.sample(EXPLICIT)
        signal.signal(signal.SIGVTALRM, self._on_tick)
        signal.setitimer(signal.ITIMER_VIRTUAL, PERIOD_S, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_VIRTUAL, 0, 0)
        signal.signal(signal.SIGVTALRM, signal.SIG_DFL)

    def speed(self):
        """The samples so far: how many, the seconds they took, their mean
        time and the factor to the reference speed."""
        mean_us = self.total_ns / self.count / 1e3
        return {"samples": self.count, "sampled_s": self.total_ns / 1e9,
                "mean_us": mean_us, "factor": NOMINAL_US / mean_us}
