"""Machine-speed probe that puts the end-to-end timings on one scale.

The benchmark runs on shared hosts whose speed drifts: a fixed
pure-Python loop runs up to twice as long in some half-minute stretches
as in others, so wall times of identical work spread by more than any
bound a regression check could use.  The probe measures that drift
while the workload runs.

While a ``--trace 0`` run measures, an interval timer interrupts the
process every :data:`PERIOD_S` seconds of wall time and a signal handler
times :func:`probe_once`, a fixed loop that shares no code or data with
the program.  Every end-to-end timing ``[start, end)`` is then reported
at the reference speed::

    (end - start - probe time inside it) * REFERENCE_S / median probe time

where the median is over the probe samples inside the interval, or the
:data:`MIN_SAMPLES` samples nearest to its middle when it holds fewer
(short set-up phases).  On a host running the probe in
:data:`REFERENCE_S` the reported time equals the wall time; the
benchmark reports the raw wall times and the probe median as well.
"""

from __future__ import annotations

import bisect
import signal
import time
from typing import List, Optional, Sequence

from perfbench import stats

#: wall seconds between two probe samples
PERIOD_S = 0.05
#: probe samples that set the speed of one interval, at least
MIN_SAMPLES = 20
#: median :func:`probe_once` time defining the reference speed (a
#: 2-vCPU Xeon runner with Python 3.11 takes about this long)
REFERENCE_S = 0.0004

_TABLE = tuple(range(0, 7 * 256, 7))


def probe_once() -> int:
    """The fixed probe: integer arithmetic and tuple indexing, about
    0.4 ms.  It creates no containers, so it never runs the cyclic
    garbage collector."""
    table = _TABLE
    x = 1
    for i in range(3000):
        x = (x + table[(x ^ i) & 255]) & 0xFFFF
    return x


def at_reference(
    start: float,
    end: float,
    stamps: Sequence[float],
    durations: Sequence[float],
    reference: float = REFERENCE_S,
    min_samples: int = MIN_SAMPLES,
) -> float:
    """Seconds that ``[start, end)`` would have taken at the reference
    speed, given probe samples that started at ``stamps`` (ascending)
    and lasted ``durations``."""
    if not stamps:
        raise ValueError("no probe samples")
    lo = bisect.bisect_left(stamps, start)
    hi = bisect.bisect_left(stamps, end)
    inside = durations[lo:hi]
    busy = (end - start) - sum(inside)
    if len(inside) >= min_samples:
        base = list(inside)
    else:
        base = _nearest(stamps, durations, (start + end) / 2.0, min_samples)
    return busy * reference / stats.median(base)


def _nearest(
    stamps: Sequence[float], durations: Sequence[float], at: float, count: int
) -> List[float]:
    """Durations of the ``count`` samples whose stamps lie nearest ``at``."""
    right = bisect.bisect_left(stamps, at)
    left = right - 1
    out: List[float] = []
    while len(out) < count and (left >= 0 or right < len(stamps)):
        if right >= len(stamps) or (left >= 0 and at - stamps[left] <= stamps[right] - at):
            out.append(durations[left])
            left -= 1
        else:
            out.append(durations[right])
            right += 1
    return out


class SpeedProbe:
    """Samples :func:`probe_once` every ``period`` seconds from a
    ``SIGALRM`` handler while the context is open."""

    def __init__(self, period: float = PERIOD_S) -> None:
        self.period = period
        self.stamps: List[float] = []
        self.durations: List[float] = []
        self._previous: Optional[object] = None

    def _on_alarm(self, signum, frame) -> None:
        t0 = time.perf_counter()
        probe_once()
        self.stamps.append(t0)
        self.durations.append(time.perf_counter() - t0)

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def at_reference(self, start: float, end: float) -> float:
        return at_reference(start, end, self.stamps, self.durations)

    def median(self) -> float:
        return stats.median(self.durations)
