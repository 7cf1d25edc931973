"""Host-speed normalisation of measured times.

On the 2-core sandbox this benchmark was built on, the speed of the host
flips between a fast and a slow state (a fixed pure-Python loop takes
14 ms or 20 ms) every 0.1 to 0.5 s, in CPU time as much as in wall
time. One item of 1 to 2 s spans many flips, so neither its raw time
nor a probe at its ends says how fast the host was while it ran.

``SpeedMeter`` samples the speed while code runs. A fixed probe loop
runs at each end of the measured span, and, from a ``SIGALRM`` interval
timer, every ``SAMPLE_EVERY_S`` inside it. Each probe gives the speed
``PROBE_REF_S / probe seconds``. A span's normalised time is its wall
time, less the time spent in the probes inside it, times the mean speed
over all its probes: the seconds it would take at the reference speed,
at which the probe takes ``PROBE_REF_S``. The probe is benchmark code, so
a change to the program cannot move it.
"""

from __future__ import annotations

import random
import signal
import statistics
import time
from fractions import Fraction

PROBE_REF_S = 0.0005  # the probe's time on a quiet moment of the reference host
SAMPLE_EVERY_S = 0.05
END_PROBES = 4  # probes at each end of a span; the end probes are untimed

# The slow state does not slow every kind of work alike. A probe of
# small-int loops and Fraction arithmetic, the two kinds of Python work
# the workloads do most, tracked the items best: over the same five runs
# it left a run-to-run spread of 3-9 % where small-int loops alone left
# 6-13 %, and adding numpy products and scattered list reads made it worse.
_rng = random.Random(0)
_FRACTIONS = [Fraction(_rng.randrange(1, 997), _rng.randrange(1, 997)) for _ in range(60)]


def probe() -> float:
    """Seconds the fixed probe takes now."""
    t0 = time.perf_counter()
    s = 0
    for i in range(2_500):
        s += i * i
    f = Fraction(0)
    for x in _FRACTIONS:
        f += x * x
    return time.perf_counter() - t0


def end_speeds() -> list[float]:
    return [PROBE_REF_S / probe() for _ in range(END_PROBES)]


class SpeedMeter:
    """Samples host speed from a timer signal while a span runs.

    Use as a context manager around the measured code only; the end
    probes (``end_speeds``) run outside the timed span.
    """

    def __init__(self) -> None:
        self.speeds: list[float] = []
        self.probe_s = 0.0

    def _on_alarm(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.speeds.append(PROBE_REF_S / probe())
        self.probe_s += time.perf_counter() - t0

    def __enter__(self) -> "SpeedMeter":
        self.speeds, self.probe_s = [], 0.0
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def normalised(wall_s: float, meter: SpeedMeter, before: list[float],
               after: list[float]) -> float:
    """Seconds at the reference speed for a span the meter sampled."""
    return (wall_s - meter.probe_s) * statistics.fmean(
        [*before, *meter.speeds, *after])
