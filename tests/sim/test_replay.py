"""Simulator.replay: guards, chunking, and the verified slow path."""

from dataclasses import replace

import numpy as np
import pytest

from repro.apps.sor import SorConfig, VERSIONS as SOR
from repro.machine.presets import r8000
from repro.mem.paging import PageMapper
from repro.obs import Telemetry
from repro.sim.engine import Simulator
from repro.trace.replay import (
    REPLAY_CHUNK_LINES,
    _chunk_batches,
    fast_replay_supported,
)
from repro.trace.store import TraceCapture, TraceStore, trace_key_for


@pytest.fixture()
def stored_sor(tmp_path):
    machine = r8000(64)
    store = TraceStore(tmp_path / "traces")
    simulator = Simulator(machine, verify=False)
    capture = TraceCapture()
    config = SorConfig.quick()
    live = simulator.run(SOR["threaded"](config), capture=capture)
    key = trace_key_for(SOR["threaded"](config), config, machine, 4096)
    store.put(key, capture, live, machine, 4096)
    return machine, live, store.get(key)


class TestReplayGuards:
    def test_capture_excludes_page_mapper(self):
        machine = r8000(64)
        simulator = Simulator(machine, verify=False)
        mapper = PageMapper(page_size=4096)
        with pytest.raises(ValueError, match="page mapper"):
            simulator.run(
                SOR["threaded"](SorConfig.quick()),
                l2_page_mapper=mapper,
                capture=TraceCapture(),
            )

    def test_wrong_machine_rejected(self, stored_sor):
        _, _, stored = stored_sor
        other = Simulator(r8000(32), verify=False)
        with pytest.raises(ValueError, match="machine"):
            other.replay(stored)

    def test_wrong_line_bits_rejected(self, stored_sor):
        machine, _, stored = stored_sor
        stored.header["line_bits"] += 1
        with pytest.raises(ValueError, match="line size"):
            Simulator(machine, verify=False).replay(stored)


class TestVerifiedReplay:
    def test_oracle_declines_fast_path_but_stats_agree(self, stored_sor):
        # With verification on, the replay hierarchy carries a cache
        # oracle, so fast_replay_supported must refuse and the chunked
        # dict-kernel path runs under full oracle cross-checking.
        machine, live, stored = stored_sor
        hierarchy = machine.build_hierarchy()
        assert fast_replay_supported(hierarchy, stored)

        replayed = Simulator(machine, verify=True).replay(stored)
        assert replayed.verified
        assert replayed.stats == live.stats
        assert replayed.time == live.time
        assert replace(replayed.sched, seq=0) == replace(live.sched, seq=0)


class TestChunkBatches:
    def test_chunks_cover_whole_stream(self):
        rng = np.random.default_rng(11)
        sizes = rng.integers(1, 2000, size=300, dtype=np.int64)
        ends = np.cumsum(sizes)
        cuts = _chunk_batches(ends)
        assert cuts == sorted(set(cuts))
        assert cuts[-1] == len(ends)
        # Every cut is a real batch boundary (index into ends).
        assert all(0 < c <= len(ends) for c in cuts)

    def test_chunks_respect_target_size(self):
        # Uniform batches of 100 lines: each chunk closes at the first
        # batch boundary at or past the next 64 Ki-line multiple, so the
        # i-th cut's end position crosses (i + 1) targets and overshoots
        # by less than one batch.
        ends = np.arange(100, 100 * 3001, 100, dtype=np.int64)
        cuts = _chunk_batches(ends)
        assert len(cuts) > 1
        for i, cut in enumerate(cuts[:-1]):
            target = (i + 1) * REPLAY_CHUNK_LINES
            assert target <= int(ends[cut - 1]) < target + 100

    def test_single_giant_batch_is_one_chunk(self):
        ends = np.array([10 * REPLAY_CHUNK_LINES], dtype=np.int64)
        assert _chunk_batches(ends) == [1]

    def test_empty_stream(self):
        assert _chunk_batches(np.array([], dtype=np.int64)) == []


class TestReplayMetrics:
    def test_replay_reports_the_live_runs_forks_and_dispatches(self, tmp_path):
        machine = r8000(64)
        config = SorConfig.quick()
        live_obs = Telemetry()
        capture = TraceCapture()
        live = Simulator(machine, verify=False, telemetry=live_obs).run(
            SOR["threaded"](config), capture=capture
        )
        store = TraceStore(tmp_path / "traces")
        key = trace_key_for(SOR["threaded"](config), config, machine, 4096)
        store.put(key, capture, live, machine, 4096)
        replay_obs = Telemetry()
        replayed = Simulator(machine, verify=False, telemetry=replay_obs).replay(
            store.get(key)
        )
        assert replayed.stats == live.stats
        live_metrics, replay_metrics = live_obs.metrics, replay_obs.metrics
        for name in ("sim.forks", "sim.dispatches"):
            assert (
                replay_metrics.counter(name).value
                == live_metrics.counter(name).value
            ), name
        assert replay_metrics.counter("sim.forks").value == live.forks > 0
        assert replay_metrics.counter("sim.dispatches").value == live.dispatches
        assert replay_metrics.counter("sim.replays").value == 1
        assert replay_metrics.counter("sim.runs").value == 0
