"""CPU-speed probe: turns measured seconds into reference-speed seconds.

The speed of one vCPU on a shared host changes by up to 2x within seconds
(other tenants' load on the same core), so raw wall times of one program
differ by more than any regression worth catching.  While a run is timed,
a ``SIGALRM`` every ``INTERVAL_S`` runs a fixed loop of ``Fraction``
arithmetic (femforge's own kind of work) in the main thread, on the CPU the
run is using, and records how long it took.  The run's reference-speed time
is its measured time, less the probe's own time, times the mean of
``REF_S / sample``: the seconds the same work takes on a CPU that runs the
loop in ``REF_S``.
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

REF_S = 0.002
INTERVAL_S = 0.1


def _loop() -> Fraction:
    s = Fraction(0)
    for j in range(1, 250):
        s += Fraction(j % 97 + 1, j % 13 + 3) * Fraction(j % 11 + 1, 7)
    return s


class SpeedProbe:
    """Context manager sampling the CPU speed while the block runs."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (start, seconds)
        self._previous = None

    def sample(self, *_signal_args) -> None:
        start = time.perf_counter()
        _loop()
        self.samples.append((start, time.perf_counter() - start))

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.samples:
            self.sample()

    def speed(self) -> float:
        """Mean speed relative to the reference CPU (1.0 = reference)."""
        return statistics.fmean(REF_S / dur for _, dur in self.samples)

    def reference_seconds(self, start: float, end: float) -> float:
        """Reference-speed seconds of the work timed from ``start`` to ``end``
        on ``time.perf_counter``, the probe's own samples taken out."""
        spent = sum(dur for t, dur in self.samples if start <= t < end)
        return (end - start - spent) * self.speed()
