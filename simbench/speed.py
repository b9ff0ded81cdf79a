"""Host-speed probe, so that times on a shared host can be compared.

On a host whose CPUs are shared with other tenants, the speed of the
interpreter swings by a third or more, over seconds and over minutes,
and any wall time measured there swings with it.  Two pieces of Python
work timed at the same moment slow down together, though (interleaved
at 5 ms, a dict loop and the cache kernel moved with a correlation of
0.94, and their ratio spread 5% where each alone spread 30%).

``SpeedProbe`` exploits that: while it is active, a timer signal runs a
fixed slice of interpreter work every ``INTERVAL_S`` and records how
long it took.  ``normalize`` turns a wall time measured over an
interval into *seconds at reference speed*: the wall time minus the
probes' own time, scaled by the host's mean relative speed over the
interval, ``REFERENCE_S / probe time`` averaged over its probes.  Speed,
not probe time, is averaged because probes are evenly spaced in wall
time and the work done in an interval is speed integrated over it.  A
program that does less work reads proportionally lower; a host that
runs slower for a while does not.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter

#: Seconds between probes, and the probe time that defines reference
#: speed (about this host's typical probe time).
INTERVAL_S = 0.02
REFERENCE_S = 0.0018
#: Iterations of the probe's loop.
PROBE_WORK = 6000


def probe_work() -> None:
    """The fixed slice of interpreter work: dict updates keyed by a
    multiplicative hash, the simulator kernel's dominant operation."""
    table: dict[int, int] = {}
    for i in range(PROBE_WORK):
        key = (i * 2654435761) & 1023
        if key in table:
            table[key] += 1
        else:
            table[key] = 1


class SpeedProbe:
    """Samples host speed from ``SIGALRM`` while used as a context."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent_s = 0.0
        self._previous = None

    def _on_alarm(self, signum, frame) -> None:
        start = perf_counter()
        probe_work()
        elapsed = perf_counter() - start
        self.samples.append(elapsed)
        self.spent_s += elapsed

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def mark(self) -> tuple[float, int]:
        """A point to normalize from."""
        return self.spent_s, len(self.samples)

    def scale(self, since: tuple[float, int] = (0.0, 0)) -> float:
        """The host's mean speed since ``since``, relative to reference
        speed."""
        samples = self.samples[since[1]:] or self.samples
        if not samples:
            raise RuntimeError("no speed samples: interval too short")
        return statistics.fmean(REFERENCE_S / sample for sample in samples)

    def normalize(self, wall_s: float, since: tuple[float, int]) -> float:
        """``wall_s``, measured from ``since`` to now, in seconds at
        reference speed."""
        busy = wall_s - (self.spent_s - since[0])
        return busy * self.scale(since)
