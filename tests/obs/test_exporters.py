"""Exporter round-trips: jsonl <-> span tree, Chrome trace, run writer."""

import json

import pytest

from repro.obs.bus import EventBus
from repro.obs.exporters import (
    EVENTS_FILE,
    METRICS_FILE,
    TRACE_FILE,
    RunTelemetryWriter,
    append_events_jsonl,
    build_span_tree,
    chrome_trace_event,
    iter_spans,
    load_run,
    read_events,
    read_metrics,
    write_chrome_trace,
    write_metrics_json,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.telemetry import Telemetry
from repro.resilience.checkpoint import ExperimentRecord, RunStore
from repro.resilience.errors import CheckpointError


def deterministic_bus():
    state = {"t": 0}

    def clock():
        state["t"] += 1000
        return state["t"]

    return EventBus(clock=clock)


def nested_events():
    bus = deterministic_bus()
    bus.begin("exp.table2")
    bus.begin("sim.run", machine="R8000")
    bus.instant("mem.alloc", array="a", bytes=64)
    bus.begin("sched.run", tid=1, threads=64)
    bus.end(tid=1)
    bus.end()
    bus.end()
    return bus.events


class TestJsonlRoundTrip:
    def test_events_survive_write_and_read(self, tmp_path):
        events = nested_events()
        path = tmp_path / EVENTS_FILE
        append_events_jsonl(path, events)
        assert read_events(path) == events

    def test_appends_accumulate(self, tmp_path):
        path = tmp_path / EVENTS_FILE
        append_events_jsonl(path, [{"ph": "i", "name": "a", "ts": 1}])
        append_events_jsonl(path, [{"ph": "i", "name": "b", "ts": 2}])
        assert [e["name"] for e in read_events(path)] == ["a", "b"]

    def test_corrupt_line_is_a_structured_error(self, tmp_path):
        path = tmp_path / EVENTS_FILE
        path.write_text('{"ph":"i","name":"ok","ts":1}\n{broken\n')
        with pytest.raises(CheckpointError, match="corrupt event at .*:2"):
            read_events(path)


class TestSpanTree:
    def test_rebuilds_nesting_per_lane(self):
        roots = build_span_tree(nested_events())
        shapes = [root.as_dict() for root in roots]
        assert shapes == [
            {
                "name": "exp.table2",
                "tid": 0,
                "children": [
                    {"name": "sim.run", "tid": 0, "children": []}
                ],
            },
            {"name": "sched.run", "tid": 1, "children": []},
        ]

    def test_instants_attach_to_enclosing_span(self):
        roots = build_span_tree(nested_events())
        sim = roots[0].children[0]
        assert [i["name"] for i in sim.instants] == ["mem.alloc"]

    def test_durations_are_end_minus_start(self):
        for span in iter_spans(build_span_tree(nested_events())):
            assert span.end is not None
            assert span.duration_ns > 0

    def test_unclosed_span_keeps_end_none(self):
        events = [{"ph": "B", "name": "crashed", "ts": 5}]
        (root,) = build_span_tree(events)
        assert root.end is None

    def test_stray_end_is_ignored(self):
        events = [{"ph": "E", "name": "stray", "ts": 5}]
        assert build_span_tree(events) == []


class TestChromeTrace:
    def test_begin_end_pairing_and_microseconds(self, tmp_path):
        events = nested_events()
        path = tmp_path / TRACE_FILE
        write_chrome_trace(path, events)
        payload = json.loads(path.read_text())
        trace = payload["traceEvents"]
        assert len(trace) == len(events)
        begins = [e for e in trace if e["ph"] == "B"]
        ends = [e for e in trace if e["ph"] == "E"]
        assert len(begins) == len(ends) == 3
        # Timestamps are microseconds, monotonic in emission order.
        stamps = [e["ts"] for e in trace]
        assert stamps == sorted(stamps)
        source = [e["ts"] for e in events]
        assert stamps == [t / 1000.0 for t in source]

    def test_per_lane_nesting_survives(self, tmp_path):
        """B/E events of each Chrome tid nest like a balanced bracket
        string — the property Perfetto needs to draw the track."""
        path = tmp_path / TRACE_FILE
        write_chrome_trace(path, nested_events())
        depths = {}
        for event in json.loads(path.read_text())["traceEvents"]:
            tid = event["tid"]
            if event["ph"] == "B":
                depths[tid] = depths.get(tid, 0) + 1
            elif event["ph"] == "E":
                depths[tid] = depths.get(tid, 0) - 1
                assert depths[tid] >= 0
        assert all(depth == 0 for depth in depths.values())

    def test_instant_gets_scope_and_category(self):
        out = chrome_trace_event(
            {"ph": "i", "name": "verify.violation", "ts": 2000}
        )
        assert out["s"] == "t"
        assert out["cat"] == "verify"
        assert out["ts"] == 2.0


class TestMetricsFile:
    def test_round_trip(self, tmp_path):
        registry = MetricsRegistry()
        registry.counter("sim.runs").inc(3)
        registry.histogram("sim.modeled_seconds").observe(0.25)
        path = tmp_path / METRICS_FILE
        write_metrics_json(path, registry)
        restored = read_metrics(path)
        assert restored.as_dict() == registry.as_dict()


class TestRunTelemetryWriter:
    def test_flush_then_finalize_produces_all_artifacts(self, tmp_path):
        obs = Telemetry()
        writer = RunTelemetryWriter(tmp_path / "r1", obs)
        obs.bus.begin("exp.a")
        obs.metrics.counter("campaign.retries").inc()
        writer.flush()
        obs.bus.end()
        writer.finalize()
        assert (tmp_path / "r1" / EVENTS_FILE).exists()
        assert (tmp_path / "r1" / METRICS_FILE).exists()
        assert (tmp_path / "r1" / TRACE_FILE).exists()
        events = read_events(tmp_path / "r1" / EVENTS_FILE)
        assert [e["ph"] for e in events] == ["B", "E"]

    def test_finalize_closes_dangling_spans(self, tmp_path):
        obs = Telemetry()
        writer = RunTelemetryWriter(tmp_path / "r1", obs)
        obs.bus.begin("exp.interrupted")
        writer.finalize()
        events = read_events(tmp_path / "r1" / EVENTS_FILE)
        assert [e["ph"] for e in events] == ["B", "E"]

    def test_load_run_returns_all_pieces(self, tmp_path):
        run_dir = tmp_path / "r1"
        RunStore(tmp_path).new_run(["a"], run_id="r1")
        obs = Telemetry()
        writer = RunTelemetryWriter(run_dir, obs)
        obs.bus.instant("x")
        writer.finalize()
        manifest, events, metrics = load_run(run_dir)
        assert manifest["run_id"] == "r1"
        assert manifest["ids"] == ["a"]
        assert [e["name"] for e in events] == ["x"]
        assert metrics is not None

    def test_load_run_reads_the_store_not_the_report(self, tmp_path):
        # A torn manifest.json report must not hide intact telemetry.
        run_dir = tmp_path / "r1"
        store = RunStore(tmp_path)
        manifest = store.new_run(["a"], run_id="r1")
        store.record(manifest, ExperimentRecord("a", "passed"))
        obs = Telemetry()
        RunTelemetryWriter(run_dir, obs).finalize()
        report = store.manifest_path("r1")
        report.write_bytes(report.read_bytes()[: report.stat().st_size // 2])
        loaded, _, metrics = load_run(run_dir)
        assert loaded["records"]["a"]["status"] == "passed"
        assert metrics is not None

    def test_load_run_without_a_readable_plan_has_no_header(self, tmp_path):
        run_dir = tmp_path / "r1"
        RunTelemetryWriter(run_dir, Telemetry()).finalize()
        (run_dir / "plan.json").write_text("{ torn")
        manifest, _, metrics = load_run(run_dir)
        assert manifest is None
        assert metrics is not None

    def test_load_run_tolerates_missing_files(self, tmp_path):
        manifest, events, metrics = load_run(tmp_path)
        assert manifest is None
        assert events == []
        assert metrics is None
