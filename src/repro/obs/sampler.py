"""Periodic cache-hierarchy sampling: miss classes as a time series.

The final ``SimResult`` only reports end-of-run totals; the paper's
analysis, by contrast, reasons about *when* misses happen (cold start vs
steady state, per-bin reuse).  A :class:`CacheSampler` attached to a
:class:`~repro.cache.hierarchy.CacheHierarchy` (``hierarchy.observer``)
snapshots the per-class miss deltas every ``interval`` L1 data
references:

* into the metrics registry as the ``cache.l1.classes`` /
  ``cache.l2.classes`` series (the ``repro-trace`` miss-class timeline);
* onto the event bus as ``C`` counter samples, which Perfetto renders as
  counter tracks alongside the bin-sweep spans.

With no sampler attached the hierarchy runs its uninstrumented
``access_data`` (attaching one rebinds the instance to the instrumented
variant — see :class:`~repro.cache.hierarchy.CacheHierarchy`), so the
un-observed hot path pays nothing; an attached sampler costs one
comparison per batch.  The cadence counts references, not batches,
because batch sizes are an artifact of the feed: the trace recorder
coalesces records into batches of a few thousand run-length entries,
and replay feeds far larger chunks.  A batch that spans several
intervals yields one sample.
"""

from __future__ import annotations

from typing import Any

from repro.obs.telemetry import Telemetry

#: L1 data references between samples.  The recorder's batches carry
#: about 7k references each on a cold pass over the Table 3/5/7/9
#: versions, so nearly every batch is sampled: about 1.3k samples for
#: the pass's 9.4M references.
DEFAULT_INTERVAL = 1 << 12


class CacheSampler:
    """Snapshots miss-class deltas every ``interval`` L1 data references."""

    __slots__ = ("obs", "interval", "program", "_refs", "_next", "_prev")

    def __init__(
        self,
        obs: Telemetry,
        program: str | None = None,
        interval: int = DEFAULT_INTERVAL,
    ) -> None:
        if interval < 1:
            raise ValueError(f"interval must be >= 1, got {interval}")
        self.obs = obs
        self.interval = interval
        self.program = program
        self._refs = 0
        self._next = interval
        self._prev: dict[str, dict[str, int]] = {}

    def on_batch(self, hierarchy, refs: int) -> None:
        """Called by the hierarchy after every data access batch of
        ``refs`` references."""
        self._refs += refs
        if self._refs < self._next:
            return
        self._next = self._refs - self._refs % self.interval + self.interval
        self.sample(hierarchy)

    def sample(self, hierarchy) -> None:
        """Take one sample now (also called at end of run for the tail)."""
        t = self.obs.bus.now()
        for level_name, level in (
            ("l1", hierarchy.l1d.stats),
            ("l2", hierarchy.l2.stats),
        ):
            current = {
                "accesses": level.accesses,
                "misses": level.misses,
                "compulsory": level.compulsory,
                "capacity": level.capacity,
                "conflict": level.conflict,
            }
            previous = self._prev.get(level_name, {})
            delta: dict[str, Any] = {
                key: value - previous.get(key, 0)
                for key, value in current.items()
            }
            self._prev[level_name] = current
            if not any(delta.values()):
                continue
            delta["refs"] = self._refs
            if self.program:
                delta["program"] = self.program
            name = f"cache.{level_name}.classes"
            self.obs.metrics.series(name).append(t, delta)
            self.obs.bus.counter(
                name,
                {
                    key: delta[key]
                    for key in ("compulsory", "capacity", "conflict")
                },
            )
