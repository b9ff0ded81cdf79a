"""CacheSampler edge cases and the counter-track exporter round-trip.

Three behaviours the telemetry docs promise but nothing pinned down:

* zero-duration spans survive the span tree and the summary tables
  (a ``begin``/``end`` pair on the same clock tick is legal — the bus
  never pads timestamps);
* a sampler attached mid-run swallows all prior history as one delta
  (its baseline is empty, not the hierarchy's current counters), and
  an interval in which nothing changed emits no sample at all;
* ``counter_track_events`` round-trips through a Chrome trace file with
  names, timestamps, and numeric args intact.
"""

import json

from repro.machine import r8000
from repro.obs.bus import EventBus
from repro.obs.exporters import (
    build_span_tree,
    counter_track_events,
    write_chrome_trace,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.report import span_summary_table
from repro.obs.sampler import CacheSampler
from repro.obs.telemetry import Telemetry


def frozen_bus():
    """A bus whose clock never advances: every span has zero duration."""
    return EventBus(clock=lambda: 42)


class TestZeroDurationSpans:
    def test_span_tree_keeps_zero_duration_spans(self):
        bus = frozen_bus()
        bus.begin("sim.run")
        bus.begin("sim.setup")
        bus.end()
        bus.end()
        roots = build_span_tree(bus.events)
        assert len(roots) == 1
        root = roots[0]
        assert root.duration_ns == 0
        assert root.children[0].name == "sim.setup"
        assert root.children[0].duration_ns == 0

    def test_summary_table_renders_zero_durations(self):
        bus = frozen_bus()
        bus.begin("sim.run")
        bus.end()
        rendered = span_summary_table(bus.events).render()
        assert "sim.run" in rendered

    def test_unclosed_span_duration_is_zero_not_negative(self):
        bus = frozen_bus()
        bus.begin("sim.run")  # crashed run: no end event
        (root,) = build_span_tree(bus.events)
        assert root.end is None
        assert root.duration_ns == 0


class TestMidRunAttach:
    def run_batches(self, hierarchy, start, count):
        for i in range(start, start + count):
            hierarchy.access_data([i % 512], writes=0)

    def test_first_sample_swallows_history_as_one_delta(self):
        hierarchy = r8000().build_hierarchy()
        self.run_batches(hierarchy, 0, 100)  # unobserved history
        obs = Telemetry()
        sampler = CacheSampler(obs, interval=4)
        hierarchy.observer = sampler  # attached mid-run
        self.run_batches(hierarchy, 100, 4)
        series = obs.metrics.series_["cache.l1.classes"]
        assert len(series.samples) == 1
        first = series.samples[0]
        # The sampler's baseline is empty, so its first delta equals the
        # hierarchy's cumulative counters — history is not lost, it is
        # one big first interval.
        assert first["accesses"] == hierarchy.l1d.stats.accesses
        assert first["misses"] == hierarchy.l1d.stats.misses
        # The sampler counts only references it observed.
        assert first["refs"] == 4

    def test_quiet_interval_emits_no_sample(self):
        hierarchy = r8000().build_hierarchy()
        obs = Telemetry()
        sampler = CacheSampler(obs, interval=2)
        hierarchy.observer = sampler
        self.run_batches(hierarchy, 0, 2)
        assert len(obs.metrics.series_["cache.l1.classes"]) == 1
        # Two explicit tail samples with no traffic in between: the
        # all-zero delta is skipped, not recorded as a zero row.
        sampler.sample(hierarchy)
        sampler.sample(hierarchy)
        assert len(obs.metrics.series_["cache.l1.classes"]) == 1

    def test_l2_series_only_appears_once_l2_sees_traffic(self):
        hierarchy = r8000().build_hierarchy()
        obs = Telemetry()
        hierarchy.observer = CacheSampler(obs, interval=1)
        hierarchy.access_data([1], writes=0)  # L1 miss -> L2 access
        hierarchy.access_data([1], writes=0)  # L1 hit: no L2 delta
        l2 = obs.metrics.series_["cache.l2.classes"]
        assert len(l2.samples) == 1


class TestCounterTrackRoundTrip:
    def build_registry(self):
        metrics = MetricsRegistry()
        metrics.gauge("sched.bins").set(46)
        metrics.gauge("campaign.note").set(3.5)
        series = metrics.series("profile.l1.occupancy")
        series.append(1000, {"A": 0.5, "B": 0.25})
        series.append(2000, {"A": 0.75, "B": 0.125})
        return metrics

    def test_events_carry_gauges_and_series(self):
        events = counter_track_events(self.build_registry())
        by_name = {}
        for event in events:
            by_name.setdefault(event["name"], []).append(event)
        assert [e["args"]["value"] for e in by_name["sched.bins"]] == [46]
        occupancy = by_name["profile.l1.occupancy"]
        assert [e["ts"] for e in occupancy] == [1000, 2000]
        assert occupancy[0]["args"] == {"A": 0.5, "B": 0.25}
        assert all(e["ph"] == "C" for e in events)

    def test_non_numeric_values_are_dropped(self):
        metrics = MetricsRegistry()
        series = metrics.series("cache.l1.classes")
        series.append(10, {"misses": 7, "program": "matmul", "hot": True})
        (event,) = counter_track_events(metrics)
        assert event["args"] == {"misses": 7}

    def test_chrome_trace_file_round_trip(self, tmp_path):
        events = counter_track_events(self.build_registry())
        path = tmp_path / "trace.counters.json"
        write_chrome_trace(path, events, metadata={"source": "test"})
        payload = json.loads(path.read_text())
        assert payload["otherData"] == {"source": "test"}
        traced = payload["traceEvents"]
        assert len(traced) == len(events)
        occupancy = [
            e for e in traced if e["name"] == "profile.l1.occupancy"
        ]
        # chrome_trace_event converts ns -> microseconds; args survive.
        assert [e["ts"] for e in occupancy] == [1.0, 2.0]
        assert occupancy[0]["args"] == {"A": 0.5, "B": 0.25}
        assert all(e["ph"] == "C" for e in occupancy)
