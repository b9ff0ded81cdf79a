"""Simulator.replay: guards, chunking, the two chunk steps, and memory."""

import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.trace.replay as replay_module
from repro.apps.sor import SorConfig, VERSIONS as SOR
from repro.cache.config import CacheConfig
from repro.cache.hierarchy import CacheHierarchy
from repro.cache.reference import ReferenceClassifyingCache, shadow_hit_bits
from repro.exp import table2_matmul_perf, table3_matmul_cache
from repro.exp.base import r8000_scaled
from repro.machine.presets import r8000
from repro.mem.paging import PageMapper
from repro.obs import Telemetry
from repro.obs.sampler import CacheSampler
from repro.sim.engine import Simulator
from repro.trace.replay import (
    REPLAY_CHUNK_LINES,
    _chunk_batches,
    fast_replay_supported,
    replay_into,
    replay_stream,
)
from repro.trace.store import (
    StoredTrace,
    TraceCapture,
    TraceStore,
    dedup_mask,
    shadow_annotation,
    trace_key_for,
)
from tests.conftest import sampler_series


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

    def test_same_name_other_l1d_rejected(self, stored_sor):
        # Machine names encode only the L2 scale: r8000(64, 64) is also
        # "R8000/64", with an 8-line L1D instead of 64 lines.
        machine, _, stored = stored_sor
        variant = r8000(64, 64)
        assert variant.name == machine.name
        assert variant.l1d.num_lines != machine.l1d.num_lines
        with pytest.raises(ValueError, match="L1D line count"):
            Simulator(variant, verify=False).replay(stored)

    def test_every_stored_geometry_field_is_checked(self, stored_sor):
        machine, _, stored = stored_sor
        simulator = Simulator(machine, verify=False)
        for field in (
            "line_bits", "l1d_lines", "l1d_assoc",
            "l2_line_bits", "l2_lines", "l2_assoc",
        ):
            saved = stored.header[field]
            stored.header[field] = saved + 1
            with pytest.raises(ValueError, match=field):
                simulator.replay(stored)
            stored.header[field] = saved


class TestVerifiedReplay:
    def test_oracle_declines_fast_path_but_stats_agree(
        self, stored_sor, vectorized_replays
    ):
        # With verification on, the replay hierarchy carries a cache
        # oracle, so fast_replay_supported must refuse and the chunked
        # dict-kernel path runs under full oracle cross-checking.
        machine, live, stored = stored_sor
        hierarchy = machine.build_hierarchy()
        assert fast_replay_supported(hierarchy, stored)

        replayed = Simulator(machine, verify=True).replay(stored)
        assert vectorized_replays == []
        assert replayed.verified
        assert replayed.stats == live.stats
        assert replayed.time == live.time
        assert replace(replayed.sched, seq=0) == replace(live.sched, seq=0)


class TestStepChoice:
    def test_only_an_observer_keeps_the_numpy_step(self, stored_sor):
        # The sampler reads statistics only; the oracle reads the set and
        # shadow dicts, the profiler and the tap each batch's lines.
        machine, _, stored = stored_sor
        hierarchy = machine.build_hierarchy()
        hierarchy.observer = CacheSampler(Telemetry())
        assert fast_replay_supported(hierarchy, stored)
        for slot in ("oracle", "profiler", "tap"):
            setattr(hierarchy, slot, object())
            assert not fast_replay_supported(hierarchy, stored), slot
            setattr(hierarchy, slot, None)


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


#: A direct-mapped 8-line L1D over a 2-way L2 with twice its line size:
#: lines drawn from 0..39 collide in every set.
SMALL_L1I = CacheConfig("L1I", size=256, line_size=32, associativity=1)
SMALL_L1D = CacheConfig("L1D", size=256, line_size=32, associativity=1)
SMALL_L2 = CacheConfig("L2", size=1024, line_size=64, associativity=2)


def stored_stream(lines, counts, ends, writes) -> StoredTrace:
    """An in-memory stored trace with the spec's shadow annotation."""
    lines = np.asarray(lines, dtype=np.int64)
    return StoredTrace(
        path=Path("synthetic.rtr"),
        header={},
        lines=lines,
        counts=np.asarray(counts, dtype=np.uint32),
        batch_ends=np.asarray(ends, dtype=np.int64),
        batch_writes=np.asarray(writes, dtype=np.int64),
        shadow_hits=shadow_hit_bits(
            lines[dedup_mask(lines)], SMALL_L1D.num_lines
        ),
    )


def replay_synthetic(stored, numpy_step: bool, interval: int):
    """Replay ``stored`` into a fresh small hierarchy under a sampler
    through one step; return the snapshot, the compulsory history and
    the sampler's series without their timestamps."""
    hierarchy = CacheHierarchy(SMALL_L1I, SMALL_L1D, SMALL_L2)
    obs = Telemetry()
    sampler = CacheSampler(obs, program="synthetic", interval=interval)
    hierarchy.observer = sampler
    if numpy_step:
        replay_stream(hierarchy, stored)
    else:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(
                replay_module, "fast_replay_supported", lambda *_: False
            )
            replay_into(hierarchy, stored)
    sampler.sample(hierarchy)
    return (
        hierarchy.snapshot(), set(hierarchy.l1d._seen), sampler_series(obs)
    )


@st.composite
def streams(draw):
    """(lines, counts, batch ends, batch writes): runs of lines from a
    small range, random counts, random batch cuts (empty batches
    included) and random store counts per batch."""
    runs = draw(st.lists(
        st.tuples(st.integers(0, 39), st.integers(1, 3)), max_size=60
    ))
    lines = [line for line, length in runs for _ in range(length)]
    counts = draw(st.lists(
        st.integers(1, 4), min_size=len(lines), max_size=len(lines)
    ))
    ends = sorted(draw(st.lists(st.integers(0, len(lines)), max_size=10)))
    ends.append(len(lines))
    writes, start = [], 0
    for end in ends:
        writes.append(draw(st.integers(0, sum(counts[start:end]))))
        start = end
    return lines, counts, ends, writes


class TestLiveAnnotation:
    """The tap keeps the live direct-mapped kernel's shadow verdicts,
    and the annotation the store builds from them is the spec's.

    Batches cut runs of equal lines, so a batch often opens on the
    previous batch's last line (simulated by the kernel, skipped by the
    deduplicated stream); the explicit example has two such batches and
    an empty one between them.
    """

    @settings(max_examples=300, deadline=None)
    @given(stream=streams())
    @example(stream=([3, 7, 7, 3, 3, 40], [1] * 6, [2, 2, 4, 6], [0] * 4))
    def test_annotation_is_the_kernels_and_the_specs(self, stream):
        lines, counts, ends, writes = stream
        hierarchy = CacheHierarchy(SMALL_L1I, SMALL_L1D, SMALL_L2)
        capture = TraceCapture()
        hierarchy.tap = capture
        reference = ReferenceClassifyingCache(SMALL_L1D)
        reference_misses = []
        start = 0
        for end, batch_writes in zip(ends, writes):
            hierarchy.access_data(
                lines[start:end], counts[start:end], batch_writes
            )
            for position in range(start, end):
                before = reference.shadow_misses
                reference.access(lines[position])
                if reference.shadow_misses > before:
                    reference_misses.append(position)
            start = end

        stream_lines = capture.arrays()["lines"]
        annotation = shadow_annotation(stream_lines, capture.shadow_misses())
        spec = shadow_hit_bits(
            stream_lines[dedup_mask(stream_lines)], SMALL_L1D.num_lines
        )
        assert annotation.tolist() == spec.tolist()
        assert hierarchy.l1d.shadow_misses == len(spec) - int(spec.sum())
        assert capture.shadow_misses().tolist() == reference_misses


class TestNumpyStep:
    """The numpy step against the dict step, chunk cut by chunk cut.

    With chunks of a few entries, runs of equal lines straddle chunk
    cuts, lines left resident by one chunk hit in the next, and
    first-ever lines arrive in later chunks; the explicit example pins
    all three (chunks [3, 7] [7, 3] [40, 11] [11, 3]).
    """

    @settings(max_examples=300, deadline=None)
    @given(
        stream=streams(),
        chunk=st.integers(1, 6),
        interval=st.integers(1, 12),
    )
    @example(
        stream=([3, 7, 7, 3, 40, 11, 11, 3], [1] * 8,
                list(range(1, 9)), [0] * 8),
        chunk=2,
        interval=1,
    )
    def test_matches_dict_step(self, stream, chunk, interval):
        stored = stored_stream(*stream)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(replay_module, "REPLAY_CHUNK_LINES", chunk)
            numpy_step = replay_synthetic(stored, True, interval)
            assert numpy_step == replay_synthetic(stored, False, interval)

    def test_empty_stream(self):
        for ends in ([], [0, 0]):
            stored = stored_stream([], [], ends, [0] * len(ends))
            replayed = replay_synthetic(stored, True, 1)
            assert replayed == replay_synthetic(stored, False, 1)
            assert replayed[0].data_refs == 0

    def test_single_giant_batch(self, monkeypatch):
        # A chunk never splits a batch: one batch is one chunk, however
        # small the chunk size.
        rng = np.random.default_rng(5)
        lines = rng.integers(0, 40, size=5000).tolist()
        counts = rng.integers(1, 4, size=5000).tolist()
        stored = stored_stream(lines, counts, [5000], [sum(counts) // 3])
        monkeypatch.setattr(replay_module, "REPLAY_CHUNK_LINES", 4)
        replayed = replay_synthetic(stored, True, 64)
        assert replayed == replay_synthetic(stored, False, 64)
        assert replayed[0].data_refs == sum(counts)

    def test_annotation_must_match_the_stream(self):
        stored = stored_stream([1, 2, 2, 3], [1] * 4, [2, 4], [0, 1])
        bits = stored.shadow_hits
        for wrong in (bits[:-1], np.append(bits, 0)):
            with pytest.raises(ValueError, match="shadow annotation"):
                replay_stream(
                    CacheHierarchy(SMALL_L1I, SMALL_L1D, SMALL_L2),
                    replace(stored, shadow_hits=wrong),
                )


class TestReplayMemory:
    def test_sampled_replay_memory_is_bounded_by_the_chunk(
        self, tmp_path, vectorized_replays
    ):
        # The quick table-3 threaded matmul stream, replayed the way a
        # saved campaign replays it: under a live Telemetry.  The numpy
        # step allocates per chunk; a whole-stream temporary of this
        # stream's 1.85M entries alone would take 15 MB.
        config = table2_matmul_perf.config(True)
        machine = r8000_scaled(True)
        program = table3_matmul_cache.COLUMNS["threaded"]
        simulator = Simulator(machine, verify=False)
        capture = TraceCapture()
        live = simulator.run(program(config), capture=capture)
        store = TraceStore(tmp_path / "traces")
        key = trace_key_for(program(config), config, machine, 4096)
        assert store.put(key, capture, live, machine, 4096) is not None
        del capture
        stored = store.get(key)
        assert len(stored.lines) > 1_800_000
        obs = Telemetry()
        tracemalloc.start()
        try:
            replayed = simulator.replay(stored, telemetry=obs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert vectorized_replays == [stored]
        assert replayed.stats == live.stats
        assert peak < 16 << 20, f"replay peaked at {peak / 2**20:.1f} MB"
