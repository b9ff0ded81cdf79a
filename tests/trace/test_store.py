"""The content-addressed trace store: format, keys, and replay fidelity.

The core contract — replaying a stored stream reproduces the live
simulation's statistics *exactly* — is pinned on all four paper
applications, on both a direct-mapped-L1 machine (the vectorized replay
kernel, with and without a telemetry sampler) and a 2-way machine (the
chunked dict-kernel fallback).  The comparisons ignore ``sched.seq`` (a
process-wide dispatch ordinal that is never serialized into manifests
or tables) and ``payload`` (replay reproduces statistics, not program
output).
"""

import multiprocessing
from dataclasses import replace

import numpy as np
import pytest

from repro.apps.matmul import MatmulConfig, VERSIONS as MATMUL
from repro.apps.nbody import NbodyConfig, VERSIONS as NBODY
from repro.apps.pde import PdeConfig, VERSIONS as PDE
from repro.apps.sor import SorConfig, VERSIONS as SOR
from repro.cache.reference import shadow_hit_bits
from repro.machine.presets import r8000, r10000
from repro.obs import Telemetry
from repro.resilience.errors import CheckpointError
from repro.sim.engine import Simulator
import repro.trace.replay as replay_module
import repro.trace.store as store_module
from repro.trace.store import (
    TraceCapture,
    TraceKey,
    TraceStore,
    current_trace_store,
    dedup_mask,
    load_trace,
    open_trace_store,
    trace_key_for,
    trace_store_scope,
    verify_object,
)
from tests.conftest import sampler_series

APPS = [
    ("matmul", MATMUL["threaded"], MatmulConfig.quick()),
    ("pde", PDE["threaded"], PdeConfig.quick()),
    ("sor", SOR["threaded"], SorConfig.quick()),
    ("nbody", NBODY["threaded"], NbodyConfig.quick()),
]


def assert_same_run(live, replayed):
    assert replayed.stats == live.stats
    assert replayed.time == live.time
    assert replayed.program == live.program
    assert replayed.machine == live.machine
    assert replayed.app_instructions == live.app_instructions
    assert replayed.thread_instructions == live.thread_instructions
    assert replayed.forks == live.forks
    assert replayed.dispatches == live.dispatches
    if live.sched is None:
        assert replayed.sched is None
    else:
        # seq is a process-wide dispatch ordinal; everything else in the
        # scheduling distribution must survive the round trip.
        assert replace(replayed.sched, seq=0) == replace(live.sched, seq=0)


def store_and_replay(tmp_path, factory, config, machine):
    store = TraceStore(tmp_path / "traces")
    simulator = Simulator(machine, verify=False)
    capture = TraceCapture()
    live = simulator.run(factory(config), capture=capture)
    key = trace_key_for(factory(config), config, machine, 4096)
    digest = store.put(key, capture, live, machine, 4096)
    assert digest == key.digest
    stored = store.get(key)
    assert stored is not None
    return live, simulator.replay(stored), store, key


def long_program(context):
    context.recorder.record_lines(list(range(1 << 16)))
    context.recorder.count_instructions(10)


def put_at_barrier(root, barrier, results):
    """Simulate ``long_program`` live, then race its ``put`` against
    another process doing the same."""
    machine = r8000(64)
    capture = TraceCapture()
    live = Simulator(machine, verify=False).run(long_program, capture=capture)
    key = trace_key_for(long_program, None, machine, 4096)
    store = TraceStore(root)
    barrier.wait()
    results.put(store.put(key, capture, live, machine, 4096))


def sampled_replay(machine, stored):
    """Replay ``stored`` under a live Telemetry, as a saved campaign
    does; return the result and the sampler's series without their
    timestamps."""
    obs = Telemetry()
    result = Simulator(machine, verify=False).replay(stored, telemetry=obs)
    return result, sampler_series(obs)


class TestRoundTrip:
    @pytest.mark.parametrize(
        "app,factory,config", APPS, ids=[a[0] for a in APPS]
    )
    def test_replay_matches_live_direct_mapped(
        self, tmp_path, monkeypatch, vectorized_replays, app, factory, config
    ):
        # r8000's L1D is direct-mapped: the vectorized replay kernel,
        # with no sidecar and with the sampler a saved campaign attaches.
        machine = r8000(64)
        live, replayed, store, key = store_and_replay(
            tmp_path, factory, config, machine
        )
        assert key.app == app
        assert_same_run(live, replayed)
        assert len(vectorized_replays) == 1

        sampled, series = sampled_replay(machine, store.get(key))
        assert len(vectorized_replays) == 2
        assert_same_run(live, sampled)
        # The dict step cuts the stream at the same chunk boundaries, so
        # the sampler must record the same series on both.
        monkeypatch.setattr(
            replay_module, "fast_replay_supported", lambda *_: False
        )
        chunked, dict_series = sampled_replay(machine, store.get(key))
        assert len(vectorized_replays) == 2
        assert_same_run(live, chunked)
        assert series["cache.l1.classes"]
        assert series == dict_series

    def test_replay_matches_live_two_way(self, tmp_path, vectorized_replays):
        # r10000's 2-way L1D declines the vectorized kernel; the chunked
        # dict-kernel fallback must be just as exact.
        live, replayed, _, _ = store_and_replay(
            tmp_path, MATMUL["threaded"], MatmulConfig.quick(), r10000(64)
        )
        assert_same_run(live, replayed)
        assert vectorized_replays == []

    def test_second_lookup_hits(self, tmp_path):
        _, _, store, key = store_and_replay(
            tmp_path, SOR["threaded"], SorConfig.quick(), r8000(64)
        )
        assert (store.hits, store.stores) == (1, 1)
        assert store.get(key) is not None
        assert store.hits == 2

    def test_put_is_idempotent(self, tmp_path):
        machine = r8000(64)
        store = TraceStore(tmp_path / "traces")
        simulator = Simulator(machine, verify=False)
        capture = TraceCapture()
        config = SorConfig.quick()
        live = simulator.run(SOR["threaded"](config), capture=capture)
        key = trace_key_for(SOR["threaded"](config), config, machine, 4096)
        assert store.put(key, capture, live, machine, 4096) == key.digest
        assert store.put(key, capture, live, machine, 4096) == key.digest
        assert store.stores == 1
        assert len(store.object_paths()) == 1


class TestContentAddress:
    def test_key_changes_with_config(self):
        machine = r8000(64)
        program = MATMUL["threaded"](MatmulConfig.quick())
        small = trace_key_for(program, MatmulConfig.quick(), machine, 4096)
        big = trace_key_for(
            program, replace(MatmulConfig.quick(), n=160), machine, 4096
        )
        assert small.digest != big.digest

    def test_key_changes_with_machine(self):
        program = MATMUL["threaded"](MatmulConfig.quick())
        config = MatmulConfig.quick()
        a = trace_key_for(program, config, r8000(64), 4096)
        b = trace_key_for(program, config, r8000(32), 4096)
        assert a.digest != b.digest

    def test_key_separates_versions(self):
        machine = r8000(64)
        config = MatmulConfig.quick()
        keys = {
            trace_key_for(factory(config), config, machine, 4096).digest
            for factory in MATMUL.values()
        }
        assert len(keys) == len(MATMUL)

    def test_key_names_app_and_version(self):
        key = trace_key_for(
            MATMUL["threaded"](MatmulConfig.quick()),
            MatmulConfig.quick(),
            r8000(64),
            4096,
        )
        assert key.app == "matmul"
        assert key.version == "matmul_threaded"


class TestIntegrity:
    def test_corrupt_object_is_a_miss(self, tmp_path):
        _, _, store, key = store_and_replay(
            tmp_path, SOR["threaded"], SorConfig.quick(), r8000(64)
        )
        path = store.object_path(key.digest)
        data = bytearray(path.read_bytes())
        data[5] ^= 0xFF  # clobber the format version field
        path.write_bytes(bytes(data))
        assert store.get(key) is None

    def test_verify_object_catches_payload_flips(self, tmp_path):
        _, _, store, key = store_and_replay(
            tmp_path, SOR["threaded"], SorConfig.quick(), r8000(64)
        )
        path = store.object_path(key.digest)
        verify_object(path)  # intact
        data = bytearray(path.read_bytes())
        data[-1] ^= 0x01  # flip one payload byte: load_trace cannot see it
        path.write_bytes(bytes(data))
        load_trace(path)
        with pytest.raises(CheckpointError, match="checksum"):
            verify_object(path)

    def test_two_processes_putting_one_object_both_succeed(self, tmp_path):
        # --jobs workers share a store, and tables 2 and 3 share matmul
        # keys: concurrent puts of one object must not collide on one
        # tmp file.  Each round races two fresh writers at a barrier.
        context = multiprocessing.get_context("spawn")
        for round_ in range(3):
            root = tmp_path / f"traces{round_}"
            barrier = context.Barrier(2)
            results = context.Queue()
            writers = [
                context.Process(target=put_at_barrier, args=(root, barrier, results))
                for _ in range(2)
            ]
            for writer in writers:
                writer.start()
            digests = [results.get(timeout=120) for _ in writers]
            for writer in writers:
                writer.join(timeout=60)
                assert writer.exitcode == 0
            key = trace_key_for(long_program, None, r8000(64), 4096)
            assert digests == [key.digest, key.digest]
            path = TraceStore(root).object_path(key.digest)
            assert verify_object(path)["digest"] == key.digest
            assert not list(root.glob("**/*.tmp"))

    def test_faulted_runs_are_not_stored(self, tmp_path):
        store = TraceStore(tmp_path / "traces")
        machine = r8000(64)
        simulator = Simulator(machine, verify=False)
        capture = TraceCapture()
        config = SorConfig.quick()
        live = simulator.run(SOR["threaded"](config), capture=capture)
        faulted = replace(live, thread_faults=[{"kind": "quarantine"}])
        key = trace_key_for(SOR["threaded"](config), config, machine, 4096)
        assert store.put(key, capture, faulted, machine, 4096) is None
        assert store.get(key) is None


def single_line_batches(ctx):
    """60,000 one-line records."""
    for i in range(60_000):
        ctx.recorder.record_lines([i % 97])


def many_batches_on(machine):
    """``(machine, capture, live result, key)`` for 60,000 one-line
    batches on ``machine``.

    The recorder coalesces a live run's records into a few large
    batches, so the 60,000 one-line batches — where the batch arrays
    outweigh the lines — are fed to a tapped hierarchy directly; the
    kernel hands the tap its shadow verdicts as in a live run.
    """
    live = Simulator(machine, verify=False).run(single_line_batches)
    hierarchy = machine.build_hierarchy()
    capture = TraceCapture()
    hierarchy.tap = capture
    for i in range(60_000):
        hierarchy.access_data([i % 97], None, 0)
    key = TraceKey("synthetic", "single_line_batches", "config", "code")
    return machine, capture, live, key


def assert_stored_at_exactly_the_cap(tmp_path, monkeypatch, many_batches):
    """Declined at the object's size - 1, stored at exactly its size;
    returns the stored object."""
    machine, capture, live, key = many_batches
    reference = TraceStore(tmp_path / "reference")
    assert reference.put(key, capture, live, machine, 4096) == key.digest
    size = reference.object_path(key.digest).stat().st_size
    monkeypatch.setattr(store_module, "MAX_TRACE_BYTES", size - 1)
    assert TraceStore(tmp_path / "under").put(
        key, capture, live, machine, 4096
    ) is None
    monkeypatch.setattr(store_module, "MAX_TRACE_BYTES", size)
    at_cap = TraceStore(tmp_path / "at")
    assert at_cap.put(key, capture, live, machine, 4096) == key.digest
    assert at_cap.object_path(key.digest).stat().st_size == size
    return at_cap.get(key)


class TestSizeCap:
    """The cap bounds the object actually written — per-batch arrays,
    shadow annotation and header included, not just the line count."""

    @pytest.fixture(scope="class")
    def many_batches(self):
        return many_batches_on(r8000(64))

    @pytest.fixture(scope="class")
    def many_batches_set_associative(self):
        return many_batches_on(r10000(64))

    def test_many_small_batches_respect_the_cap(
        self, tmp_path, monkeypatch, many_batches
    ):
        machine, capture, live, key = many_batches
        monkeypatch.setattr(store_module, "MAX_TRACE_BYTES", 1 << 20)
        store = TraceStore(tmp_path / "traces")
        assert store.put(key, capture, live, machine, 4096) is None
        assert store.object_paths() == []

    def test_size_check_is_exact(self, tmp_path, monkeypatch, many_batches):
        stored = assert_stored_at_exactly_the_cap(
            tmp_path, monkeypatch, many_batches
        )
        assert len(stored.shadow_hits) == 60_000

    def test_size_check_is_exact_without_annotation(
        self, tmp_path, monkeypatch, many_batches_set_associative
    ):
        stored = assert_stored_at_exactly_the_cap(
            tmp_path, monkeypatch, many_batches_set_associative
        )
        assert len(stored.lines) == 60_000
        assert len(stored.shadow_hits) == 0


class TestShadowAnnotation:
    def test_shadow_bits_match_kernel_shadow(self):
        # The spec of the stored annotation (repro.cache.reference)
        # must reproduce the classifying kernel's fully-associative LRU
        # exactly; cross-check its list LRU against a direct simulation
        # of the kernel's insertion-ordered-dict policy.
        rng = np.random.default_rng(7)
        stream = rng.integers(0, 12, size=400, dtype=np.int64)
        deduped = stream[dedup_mask(stream)]
        bits = shadow_hit_bits(deduped, capacity=8)
        shadow: dict[int, None] = {}
        for index, line in enumerate(deduped.tolist()):
            expected = line in shadow
            if expected:
                del shadow[line]
            elif len(shadow) >= 8:
                del shadow[next(iter(shadow))]
            shadow[line] = None
            assert bool(bits[index]) == expected

    def test_dedup_mask_drops_consecutive_runs_only(self):
        lines = np.array([3, 3, 5, 3, 3, 3, 7], dtype=np.int64)
        assert dedup_mask(lines).tolist() == [
            True, False, True, True, False, False, True,
        ]


class TestReplayGuards:
    def test_machine_mismatch_rejected(self, tmp_path):
        _, _, store, key = store_and_replay(
            tmp_path, SOR["threaded"], SorConfig.quick(), r8000(64)
        )
        stored = store.get(key)
        with pytest.raises(ValueError, match="machine"):
            Simulator(r10000(64), verify=False).replay(stored)


class TestScope:
    def test_scope_installs_and_restores(self, tmp_path):
        assert current_trace_store() is None
        store = TraceStore(tmp_path / "traces")
        with trace_store_scope(store):
            assert current_trace_store() is store
            with trace_store_scope(None):
                assert current_trace_store() is None
            assert current_trace_store() is store
        assert current_trace_store() is None

    def test_open_trace_store_disabled(self):
        assert open_trace_store(None) is None
