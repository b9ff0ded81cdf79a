"""Layer spans for the traced run, recorded from outside ``src/``.

``LayerTracer.install`` wraps the public entry points of each layer at
class (or module) level and restores them on ``uninstall``.  Every
wrapped call is a span; a layer's *self time* is its spans' duration
minus the time of the spans nested inside them, so the layers
partition the traced time without double counting.  Spans that start
with no span open are *top-level*: their total is the time the spans
cover, which the run compares with the pass's wall time.

The cache kernel is timed at ``ClassifyingCache.process`` and keyed by
the level's ``config.name``: a class-level wrap of
``CacheHierarchy.access_data`` alone would miss every batch once a
sidecar (telemetry sampler, trace-store tap) rebinds the instance to
``_access_data_instrumented``.  Both variants are wrapped, so the
hierarchy's own per-batch glue is a layer of its own.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from time import perf_counter

import repro.trace.replay
from repro.cache.classify import ClassifyingCache
from repro.cache.hierarchy import CacheHierarchy
from repro.core.package import ThreadPackage
from repro.core.thread import ThreadSpec
from repro.obs.sampler import CacheSampler
from repro.sim.engine import Simulator
from repro.trace.recorder import TraceRecorder
from repro.trace.store import TraceCapture, TraceStore

RECORDER = "trace.recorder"


def _subclasses(cls):
    yield cls
    for sub in cls.__subclasses__():
        yield from _subclasses(sub)


def _counter(name: str):
    def on_call(counts, args, result):
        counts[name] += 1
    return on_call


def _level(args) -> str:
    return f"cache.{args[0].config.name.lower()}"


class LayerTracer:
    """Accumulates self time and work counts per layer."""

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self.covered_s = 0.0
        self._stack: list[float] = []
        #: How many recorder spans are open (0 or 1 in practice).
        self._recording = [0]
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, owner, attr: str, layer, on_call=None) -> None:
        """Replace ``owner.attr`` with a span around the original.

        ``layer`` is a layer name or a function of the call's arguments
        returning one; ``on_call(counts, args, result)`` records work
        once the call returns.
        """
        original = owner.__dict__[attr]
        stack = self._stack
        recording = self._recording
        self_s = self.self_s
        counts = self.counts
        tracer = self
        tracked = layer == RECORDER

        @functools.wraps(original)
        def span(*args, **kwargs):
            if tracked:
                recording[0] += 1
            stack.append(0.0)
            start = perf_counter()
            result = None
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                elapsed = perf_counter() - start
                child = stack.pop()
                name = layer if isinstance(layer, str) else layer(args)
                self_s[name] += elapsed - child
                if stack:
                    stack[-1] += elapsed
                else:
                    tracer.covered_s += elapsed
                if tracked:
                    recording[0] -= 1
                if on_call is not None:
                    on_call(counts, args, result)

        setattr(owner, attr, span)
        self._restore.append((owner, attr, original))

    def install(self) -> None:
        """Wrap every layer boundary the benchmark reports on."""
        if self._restore:
            raise RuntimeError("layer tracer already installed")
        wrap = self._wrap
        recording = self._recording

        wrap(Simulator, "run", "apps.program")
        wrap(Simulator, "replay", "sim.replay", _counter("sim.replays"))
        # Simulator.replay imports replay_stream at call time, so the
        # module attribute is the one to wrap.
        wrap(repro.trace.replay, "replay_stream", "sim.replay",
             _counter("sim.replays.fast"))
        wrap(ThreadSpec, "run", "core.proc", _counter("core.dispatches"))
        for cls in _subclasses(ThreadPackage):
            if "th_fork" in cls.__dict__:
                wrap(cls, "th_fork", "core.fork", _counter("core.forks"))
            if "th_run" in cls.__dict__:
                wrap(cls, "th_run", "core.dispatch")
        for attr in ("record", "record_interleaved", "record_grid",
                     "record_lines"):
            wrap(TraceRecorder, attr, RECORDER,
                 _counter("trace.recorder.batches"))
        for attr in ("access_data", "_access_data_instrumented"):
            wrap(CacheHierarchy, attr, "cache.hierarchy",
                 _counter("cache.hierarchy.batches"))

        def processed(counts, args, result):
            name = _level(args)
            entries = len(args[1])
            counts[f"{name}.batches"] += 1
            counts[f"{name}.entries"] += entries
            if name == "cache.l1d" and recording[0]:
                counts["trace.recorder.entries"] += entries

        wrap(ClassifyingCache, "process", _level, processed)
        wrap(TraceCapture, "on_access", "trace.capture")

        def got(counts, args, result):
            counts["trace.store.gets"] += 1
            counts["trace.store.hits"] += result is not None

        def put(counts, args, result):
            counts["trace.store.puts"] += 1
            if result is not None:
                path = args[0].object_path(result)
                counts["trace.store.bytes"] += path.stat().st_size

        wrap(TraceStore, "get", "trace.store.get", got)
        wrap(TraceStore, "put", "trace.store.put", put)
        wrap(CacheSampler, "on_batch", "obs.sampler",
             _counter("obs.sampler.batches"))
        wrap(CacheSampler, "sample", "obs.sampler")

    def uninstall(self) -> None:
        """Put every wrapped attribute back."""
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)
