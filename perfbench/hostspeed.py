"""The host's speed, so that times taken on a shared host can be compared.

On a shared host the same code runs up to about 2.3 times slower for seconds
to tens of minutes at a time, CPU time as much as wall time, as other
tenants come and go. ``probe_work`` is a fixed piece of work that shares no
code with the program; the time it takes is a sample of the host's speed
where and when it ran. ``speed`` turns probe times into reference-host
seconds of work done per second, so a timed span multiplied by it is that
span's time on the reference host. It takes the program to slow as the
probe does: between two sets of runs half an hour apart the program's rate
fell 2.24-fold while the probe slowed 2.34-fold.
"""

from __future__ import annotations

import signal
import statistics
import time

PROBE_INTERVAL_S = 0.1  # wall time between two probes while a span is timed
REFERENCE_PROBE_S = 0.0005  # what one probe takes on the reference host


def probe_work(n: int = 3000) -> float:
    """A fixed piece of interpreter-bound work like the program's inner loops:
    dict lookups, list appends and pops, float arithmetic."""
    book: dict[int, list] = {}
    total = 0.0
    for i in range(n):
        level = book.setdefault(i % 37, [])
        level.append(i * 0.5)
        if len(level) > 4:
            total += level.pop(0)
    return total


def probe() -> float:
    """Run ``probe_work`` once; return its wall time."""
    start = time.perf_counter()
    probe_work()
    return time.perf_counter() - start


def speed(probe_times: list[float]) -> float:
    """Reference-host seconds of program work per second, from probe times."""
    return statistics.fmean(REFERENCE_PROBE_S / t for t in probe_times)


class Sampler:
    """Probes the host every ``PROBE_INTERVAL_S`` of wall time while entered,
    from a SIGALRM handler, so the samples cover the work they interrupt."""

    def __init__(self) -> None:
        self.samples: list[float] = []

    def _sample(self, signum, frame) -> None:
        self.samples.append(probe())

    def __enter__(self) -> "Sampler":
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mark(self) -> int:
        return len(self.samples)

    def busy_s(self, since: int) -> float:
        """What the probes taken since ``mark`` returned ``since`` took."""
        return sum(self.samples[since:])

    def speed(self, since: int) -> float:
        """Speed over the samples taken since ``mark`` returned ``since``; a
        span too short to hold one is given a probe of its own right after."""
        if len(self.samples) == since:
            self._sample(None, None)
        return speed(self.samples[since:])
