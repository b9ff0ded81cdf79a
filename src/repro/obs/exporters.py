"""Exporters: run artifacts a recorded campaign can be studied from.

Three files land in ``runs/<run-id>/`` next to ``manifest.json``:

``events.jsonl``
    One event dict per line, in emission order (the bus's native shape).
    Appended incrementally after every experiment so an interrupted run
    still has its telemetry up to the last checkpoint.
``metrics.json``
    The metrics registry (:meth:`MetricsRegistry.as_dict`), rewritten
    atomically at each checkpoint by the run store's write helper.
``trace.json``
    Chrome trace-event format built from the full event log at the end
    of the campaign; loadable in Perfetto / ``chrome://tracing``.

Reading them back (:func:`read_events`, :func:`load_run`,
:func:`build_span_tree`) is what powers ``repro-trace`` — summarizing a
run from its artifacts alone, with no re-simulation.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Iterable

from repro.obs.metrics import MetricsRegistry
from repro.obs.telemetry import Telemetry
from repro.resilience.checkpoint import RunStore, atomic_write_json
from repro.resilience.errors import CheckpointError

EVENTS_FILE = "events.jsonl"
METRICS_FILE = "metrics.json"
TRACE_FILE = "trace.json"
COUNTERS_FILE = "trace.counters.json"

#: ``pid`` stamped on every Chrome trace event: the simulation is one
#: logical process; lanes (bus ``tid``) map to Chrome ``tid``.
TRACE_PID = 1


# ----------------------------------------------------------------------
# Writing
# ----------------------------------------------------------------------
def append_events_jsonl(path: Path, events: Iterable[dict[str, Any]]) -> None:
    """Append events, one compact JSON object per line."""
    if not events:
        return
    try:
        with open(path, "a", encoding="utf-8") as handle:
            for event in events:
                handle.write(json.dumps(event, separators=(",", ":")))
                handle.write("\n")
    except OSError as exc:
        raise CheckpointError(
            f"cannot append {path.name}: {exc}", path=str(path)
        ) from exc


def write_metrics_json(path: Path, metrics: MetricsRegistry) -> None:
    """Persist the registry atomically (temp-then-rename)."""
    atomic_write_json(path, metrics.as_dict())


def chrome_trace_event(event: dict[str, Any]) -> dict[str, Any]:
    """One bus event in Chrome trace-event form (``ts`` in microseconds)."""
    name = event["name"]
    out: dict[str, Any] = {
        "name": name,
        "cat": name.split(".", 1)[0],
        "ph": event["ph"],
        "ts": event["ts"] / 1000.0,
        "pid": TRACE_PID,
        "tid": event.get("tid", 0),
    }
    if event["ph"] == "i":
        out["s"] = "t"  # instant scope: thread
    if "args" in event:
        out["args"] = event["args"]
    return out


def counter_track_events(metrics: MetricsRegistry) -> list[dict[str, Any]]:
    """The metrics registry as Chrome counter-track (``ph: "C"``) events.

    Every time series renders one counter sample per retained point at
    its recorded timestamp; gauges carry no history, so each becomes a
    single sample at t=0.  Counter tracks plot numbers — non-numeric
    values (and booleans, which Perfetto would plot as 0/1 noise) are
    dropped.  This is the same event shape the live profiler emits for
    its occupancy/miss-rate timelines (``EventBus.counter``), so both
    paths land in one trace viewer idiom.
    """
    events: list[dict[str, Any]] = []

    def numeric(values: dict[str, Any]) -> dict[str, Any]:
        return {
            key: value
            for key, value in values.items()
            if isinstance(value, (int, float)) and not isinstance(value, bool)
        }

    for name, gauge in sorted(metrics.gauges.items()):
        args = numeric({"value": gauge.value})
        if args:
            events.append({"ph": "C", "name": name, "ts": 0, "args": args})
    for name, series in sorted(metrics.series_.items()):
        for sample in series.samples:
            args = numeric({k: v for k, v in sample.items() if k != "t"})
            if args:
                events.append(
                    {"ph": "C", "name": name, "ts": sample["t"], "args": args}
                )
    return events


def write_chrome_trace(
    path: Path,
    events: Iterable[dict[str, Any]],
    metadata: dict[str, Any] | None = None,
) -> None:
    """Write a Chrome trace-event file from bus events."""
    payload = {
        "traceEvents": [chrome_trace_event(event) for event in events],
        "displayTimeUnit": "ms",
        "otherData": metadata or {},
    }
    atomic_write_json(path, payload)


# ----------------------------------------------------------------------
# Reading
# ----------------------------------------------------------------------
def read_events(path: Path) -> list[dict[str, Any]]:
    """Parse an ``events.jsonl`` file back into event dicts."""
    events: list[dict[str, Any]] = []
    try:
        with open(path, encoding="utf-8") as handle:
            for lineno, line in enumerate(handle, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    events.append(json.loads(line))
                except json.JSONDecodeError as exc:
                    raise CheckpointError(
                        f"corrupt event at {path.name}:{lineno}: {exc}",
                        path=str(path),
                    ) from None
    except OSError as exc:
        raise CheckpointError(
            f"cannot read {path.name}: {exc}", path=str(path)
        ) from exc
    return events


def read_metrics(path: Path) -> MetricsRegistry:
    """Load ``metrics.json`` back into a registry."""
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise CheckpointError(
            f"cannot read {path.name}: {exc}", path=str(path)
        ) from exc
    return MetricsRegistry.from_dict(payload)


class SpanNode:
    """One span in the reconstructed tree."""

    __slots__ = ("name", "tid", "start", "end", "attrs", "children", "instants")

    def __init__(
        self, name: str, tid: int, start: int, attrs: dict[str, Any]
    ) -> None:
        self.name = name
        self.tid = tid
        self.start = start
        self.end: int | None = None
        self.attrs = attrs
        self.children: list["SpanNode"] = []
        self.instants: list[dict[str, Any]] = []

    @property
    def duration_ns(self) -> int:
        return (self.end if self.end is not None else self.start) - self.start

    def as_dict(self) -> dict[str, Any]:
        """Structural form (used by round-trip tests)."""
        return {
            "name": self.name,
            "tid": self.tid,
            "children": [child.as_dict() for child in self.children],
        }


def build_span_tree(events: Iterable[dict[str, Any]]) -> list[SpanNode]:
    """Reconstruct the span forest from a ``B``/``E``/``i`` event stream.

    Lanes (``tid``) are independent stacks; roots of every lane are
    returned in begin order.  Unclosed spans (a crashed run) keep
    ``end=None``; stray ``E`` events are ignored, mirroring the bus's
    own tolerance.
    """
    roots: list[SpanNode] = []
    stacks: dict[int, list[SpanNode]] = {}
    for event in events:
        ph = event.get("ph")
        tid = event.get("tid", 0)
        stack = stacks.setdefault(tid, [])
        if ph == "B":
            node = SpanNode(
                event["name"], tid, event["ts"], event.get("args", {})
            )
            if stack:
                stack[-1].children.append(node)
            else:
                roots.append(node)
            stack.append(node)
        elif ph == "E":
            if stack:
                stack.pop().end = event["ts"]
        elif ph == "i":
            if stack:
                stack[-1].instants.append(event)
    return roots


def iter_spans(roots: list[SpanNode]):
    """All spans of a forest, depth first."""
    stack = list(reversed(roots))
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(node.children))


# ----------------------------------------------------------------------
# The campaign-facing writer
# ----------------------------------------------------------------------
class RunTelemetryWriter:
    """Flushes one campaign's telemetry into its run directory.

    ``flush()`` after every experiment drains the bus into
    ``events.jsonl`` and rewrites ``metrics.json``; ``finalize()`` closes
    dangling spans, flushes once more, and builds ``trace.json`` from
    the complete event log.  Every step is crash-tolerant: a run killed
    between flushes still holds valid artifacts for what completed.
    """

    def __init__(self, run_dir: str | Path, obs: Telemetry) -> None:
        self.run_dir = Path(run_dir)
        self.obs = obs
        self.metadata: dict[str, Any] = {}

    @property
    def events_path(self) -> Path:
        return self.run_dir / EVENTS_FILE

    @property
    def metrics_path(self) -> Path:
        return self.run_dir / METRICS_FILE

    @property
    def trace_path(self) -> Path:
        return self.run_dir / TRACE_FILE

    def flush(self) -> None:
        self.run_dir.mkdir(parents=True, exist_ok=True)
        append_events_jsonl(self.events_path, self.obs.bus.drain())
        write_metrics_json(self.metrics_path, self.obs.metrics)

    def finalize(self) -> None:
        self.obs.bus.close_all()
        self.flush()
        events = (
            read_events(self.events_path)
            if self.events_path.exists()
            else []
        )
        write_chrome_trace(self.trace_path, events, metadata=self.metadata)


def load_run(run_dir: str | Path):
    """Everything ``repro-trace`` needs from a run directory.

    Returns ``(manifest_payload | None, events, metrics | None)`` —
    each piece optional so partially recorded runs still summarize.
    The run header comes from the run store's verified objects, never
    from the ``manifest.json`` report; it is ``None`` when the run has
    no readable plan.
    """
    run_dir = Path(run_dir)
    try:
        manifest = RunStore(run_dir.parent).load(run_dir.name).to_dict()
    except CheckpointError:
        manifest = None
    events_path = run_dir / EVENTS_FILE
    events = read_events(events_path) if events_path.exists() else []
    metrics_path = run_dir / METRICS_FILE
    metrics = read_metrics(metrics_path) if metrics_path.exists() else None
    return manifest, events, metrics
