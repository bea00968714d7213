"""A speed reference for times measured on a host whose speed drifts.

On a shared virtual machine the same pure-Python loop can run 1.5x faster
or slower from one minute to the next, and process CPU time moves with it,
so medians of raw seconds from runs minutes apart do not agree.  The
benchmark therefore reports its times in reference seconds: the measured
seconds times the machine's speed relative to a fixed reference kernel,
where the speed is taken on the same core while the work runs.

The kernel is pure Python and does not touch the package, so a change to
the package cannot move it.  It has three parts in the style of the
package's hot paths: sparse {exponent: int} products, slotted objects with
big-integer coefficients, and Fraction arithmetic.  ``KERNEL_REF_S`` is the
time of one call on the reference machine; a reference second is a second
on a machine where one call takes exactly that long.

``SpeedSampler`` times one kernel call every ``INTERVAL_S`` seconds of wall
time from a SIGALRM timer while the timed region runs.  Time-uniform
samples make the mean of (KERNEL_REF_S / sample) the time-averaged relative
speed.  The garbage collector is paused inside a sample, and
``SpeedSampler.clock_ns`` is a clock that stops while a sample runs, so
the samples' own time is left out of every interval measured with it.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from fractions import Fraction

KERNEL_REF_S = 0.0018     # one kernel call on the reference machine
INTERVAL_S = 0.1          # time between samples in the timed region
CALIBRATION_CALLS = 20    # back-to-back samples for a region too short to sample

_SMALL_A = {e: (e * 7919 + 13) % 1000003 for e in range(-24, 25, 2)}
_SMALL_B = {e: (e * 104729 + 7) % 999983 for e in range(-16, 17, 2)}
_FRACTIONS = [Fraction(i, i + 3) for i in range(1, 24)]


class _Poly:
    __slots__ = ("terms",)

    def __init__(self, terms):
        self.terms = {e: c for e, c in terms.items() if c}

    def __mul__(self, other):
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                k = e1 + e2
                out[k] = out.get(k, 0) + c1 * c2
        return _Poly(out)


_BIG_A = _Poly({e: 3 ** (e % 40 + 20) for e in range(12)})
_BIG_B = _Poly({e: 1 - 2 ** (e % 50 + 30) for e in range(-5, 5)})


def kernel():
    """The fixed reference work; returns a checksum so nothing is optimised away."""
    total = 0
    for _ in range(2):
        out = {}
        for e1, c1 in _SMALL_A.items():
            for e2, c2 in _SMALL_B.items():
                k = e1 + e2
                out[k] = out.get(k, 0) + c1 * c2 * c1
        total += len(out)
    x = _BIG_A
    for _ in range(6):
        x = _Poly({e: c % (1 << 256) for e, c in (x * _BIG_B).terms.items()})
    total += len(x.terms)
    for _ in range(3):
        s = Fraction(0)
        for f in _FRACTIONS:
            s = s * f + f
        total += s.denominator % 7
    return total


def time_kernel():
    """Seconds for one kernel call, with the garbage collector paused."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        kernel()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def relative_speed(samples):
    """Mean of KERNEL_REF_S / sample: 1.0 on the reference machine, 0.5 at half speed."""
    return statistics.fmean(KERNEL_REF_S / s for s in samples)


def calibrate(calls=CALIBRATION_CALLS):
    """Back-to-back kernel samples, for the speed right now."""
    kernel()  # first call warms the code paths
    return [time_kernel() for _ in range(calls)]


class SpeedSampler:
    """Samples the kernel from a timer while the ``with`` body runs."""

    def __init__(self, interval_s=INTERVAL_S):
        self.interval_s = interval_s
        self.samples = []
        self.overhead_ns = 0
        self._previous = None

    def clock_ns(self):
        """perf_counter_ns less the time spent in samples so far."""
        return time.perf_counter_ns() - self.overhead_ns

    def _tick(self, signum, frame):
        t0 = time.perf_counter_ns()
        self.samples.append(time_kernel())
        self.overhead_ns += time.perf_counter_ns() - t0

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False
