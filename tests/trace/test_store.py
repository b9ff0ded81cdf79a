"""The content-addressed trace store: format, keys, and replay fidelity.

The core contract — replaying a stored stream reproduces the live
simulation's statistics *exactly* — is pinned on all four paper
applications on a direct-mapped-L1 machine (with the stored shadow
verdicts, with and without a telemetry sampler, and on the L1D's own
shadow), and on a 2-way machine, whose objects store verdicts too (and
whose older, annotation-less objects replay on their own shadow).  The
L2's stored verdicts are held to the live L2's state on all five, and
to replays without them, from a real container written without them
included.  The
comparisons ignore ``sched.seq`` (a
process-wide dispatch ordinal that is never serialized into manifests
or tables) and ``payload`` (replay reproduces statistics, not program
output).
"""

import json
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
from repro.machine.spec import MachineSpec
from repro.obs import Telemetry
from repro.resilience.errors import CheckpointError
from repro.sim.engine import Simulator
import repro.trace.store as store_module
from repro.cache.classify import run_heads
from repro.trace.store import (
    TraceCapture,
    TraceKey,
    TraceStore,
    current_trace_store,
    load_trace,
    open_trace_store,
    read_header,
    trace_key_for,
    trace_store_scope,
    verify_object,
    write_trace,
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


NO_VERDICTS = np.empty(0, dtype=np.uint8)


def without_annotation(stored):
    """``stored`` as an older store keeps a set-associative L1D's
    object: no shadow annotation at either level."""
    return replace(stored, shadow_hits=NO_VERDICTS, l2_shadow_hits=NO_VERDICTS)


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
        self, tmp_path, vectorized_replays, app, factory, config
    ):
        # r8000's L1D is direct-mapped: replay with the stored shadow
        # verdicts, with no sidecar and with the sampler a saved
        # campaign attaches.
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
        # Without the annotation the L1D runs its own shadow over the
        # same chunks, so the sampler must record the same series.
        own_shadow, own_series = sampled_replay(
            machine, without_annotation(store.get(key))
        )
        assert len(vectorized_replays) == 2
        assert_same_run(live, own_shadow)
        assert series["cache.l1.classes"]
        assert series == own_series

    def test_replay_matches_live_two_way(self, tmp_path, vectorized_replays):
        # r10000's 2-way L1D stores its shadow verdicts too, and replays
        # with them.
        live, replayed, store, key = store_and_replay(
            tmp_path, MATMUL["threaded"], MatmulConfig.quick(), r10000(64)
        )
        assert_same_run(live, replayed)
        assert len(vectorized_replays) == 1
        assert len(store.get(key).shadow_hits)

    def test_older_two_way_object_replays_on_its_own_shadow(
        self, tmp_path, vectorized_replays
    ):
        # An older store kept no annotation for a set-associative L1D;
        # its objects keep their key and replay exactly, simulating the
        # L1D's shadow.
        machine = r10000(64)
        live, _, store, key = store_and_replay(
            tmp_path, MATMUL["threaded"], MatmulConfig.quick(), machine
        )
        older = without_annotation(store.get(key))
        replayed = Simulator(machine, verify=False).replay(older)
        assert_same_run(live, replayed)
        assert len(vectorized_replays) == 1

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


@pytest.fixture()
def built_hierarchies(monkeypatch):
    """Every hierarchy a :class:`Simulator` builds, in order."""
    built = []
    real = MachineSpec.build_hierarchy

    def build(self, *args, **kwargs):
        built.append(real(self, *args, **kwargs))
        return built[-1]

    monkeypatch.setattr(MachineSpec, "build_hierarchy", build)
    return built


def l2_state(result, hierarchy):
    """A run's statistics and its L2's compulsory history, shadow miss
    count and sets' lines."""
    l2 = hierarchy.l2
    return (
        result.stats, set(l2._seen), l2.shadow_misses,
        [list(cache_set) for cache_set in l2.sets],
    )


def older_container(stored, path):
    """``stored`` written at ``path`` as a store that predates the L2
    annotation wrote it (no ``l2_shadow_hits`` in the header), loaded
    back."""
    older = dict(store_module._ARRAY_DTYPES)
    del older["l2_shadow_hits"]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(store_module, "_ARRAY_DTYPES", older)
        write_trace(path, stored.header, {
            name: getattr(stored, name) for name in older
        })
    assert "l2_shadow_hits" not in read_header(path)["arrays"]
    return load_trace(path)


L2_RUNS = [(*run, r8000(64)) for run in APPS] + [
    ("sor", SOR["threaded"], SorConfig.quick(), r10000(64)),
]


class TestL2Annotation:
    """Replays with the stored L2 verdicts, with them dropped, and from
    an older container without them leave the live run's statistics
    and L2 state, and record one sampler series."""

    @pytest.mark.parametrize(
        "app,factory,config,machine", L2_RUNS,
        ids=[f"{run[0]}-{run[3].name}" for run in L2_RUNS],
    )
    def test_three_replays_match_live(
        self, tmp_path, built_hierarchies, app, factory, config, machine
    ):
        capture = TraceCapture()
        live = Simulator(machine, verify=False).run(
            factory(config), capture=capture
        )
        live_l2 = built_hierarchies[-1].l2
        live_state = l2_state(live, built_hierarchies[-1])
        store = TraceStore(tmp_path / "traces")
        key = trace_key_for(factory(config), config, machine, 4096)
        store.put(key, capture, live, machine, 4096)
        stored = store.get(key)
        assert len(stored.l2_shadow_hits) == live_l2.stats.accesses
        older = older_container(stored, tmp_path / "older.rtr")
        assert len(older.l2_shadow_hits) == 0
        assert np.array_equal(older.shadow_hits, stored.shadow_hits)

        series = []
        for trace in (
            stored, replace(stored, l2_shadow_hits=NO_VERDICTS), older
        ):
            obs = Telemetry()
            replayed = Simulator(machine, verify=False).replay(
                trace, telemetry=obs
            )
            hierarchy = built_hierarchies[-1]
            assert_same_run(live, replayed)
            assert l2_state(replayed, hierarchy) == live_state
            # Only the L2 given verdicts keeps no shadow of its own.
            assert (len(hierarchy.l2.shadow) == 0) == (trace is stored)
            series.append(sampler_series(obs))
        assert series[0]["cache.l2.classes"]
        assert series[0] == series[1] == series[2]


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

    def test_unreadable_object_is_replaced_by_the_next_put(self, tmp_path):
        # An object get rejects is rewritten by the run that regenerates
        # it, not left to miss on every later run.
        live, _, store, key = store_and_replay(
            tmp_path, SOR["threaded"], SorConfig.quick(), r8000(64)
        )
        path = store.object_path(key.digest)
        data = bytearray(path.read_bytes())
        data[5] ^= 0xFF  # clobber the format version field
        path.write_bytes(bytes(data))
        assert store.get(key) is None
        machine = r8000(64)
        capture = TraceCapture()
        rerun = Simulator(machine, verify=False).run(
            SOR["threaded"](SorConfig.quick()), capture=capture
        )
        assert store.put(key, capture, rerun, machine, 4096) == key.digest
        assert store.stores == 2
        assert verify_object(path)["digest"] == key.digest
        stored = store.get(key)
        assert stored is not None
        assert_same_run(live, Simulator(machine, verify=False).replay(stored))

    def test_container_layout(self, tmp_path):
        # MAGIC | version u32 | header length u32 | header JSON | NUL
        # pad | each array at its recorded offset, NUL-padded to 16
        # bytes; the header's checksum covers the data region.
        _, _, store, key = store_and_replay(
            tmp_path, SOR["threaded"], SorConfig.quick(), r8000(64)
        )
        path = store.object_path(key.digest)
        data = path.read_bytes()
        header = verify_object(path)
        length = int.from_bytes(data[8:12], "little")
        assert data[:4] == b"RTRC"
        assert int.from_bytes(data[4:8], "little") == 1
        assert json.loads(data[12:12 + length]) == header
        stored = load_trace(path)
        end = 12 + length
        arrays = sorted(
            header["arrays"].items(), key=lambda item: item[1]["offset"]
        )
        assert [name for name, _ in arrays] == list(store_module._ARRAY_DTYPES)
        assert arrays[0][1]["offset"] == header["data_offset"]
        for name, geometry in arrays:
            offset = geometry["offset"]
            assert offset % 16 == 0 and not any(data[end:offset])
            array = np.asarray(getattr(stored, name))
            assert len(array) == geometry["count"]
            end = offset + array.nbytes
            assert data[offset:end] == array.tobytes()
        assert len(data) == -(-end // 16) * 16 and not any(data[end:])

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

    def test_size_check_is_exact_on_a_two_way_l1d(
        self, tmp_path, monkeypatch, many_batches_set_associative
    ):
        stored = assert_stored_at_exactly_the_cap(
            tmp_path, monkeypatch, many_batches_set_associative
        )
        assert len(stored.lines) == 60_000
        assert len(stored.shadow_hits) == 60_000


class TestShadowAnnotation:
    def test_shadow_bits_match_kernel_shadow(self):
        # The spec of the stored annotation (repro.cache.reference)
        # must reproduce the classifying kernel's fully-associative LRU
        # exactly; cross-check its list LRU against a direct simulation
        # of the kernel's insertion-ordered-dict policy.
        rng = np.random.default_rng(7)
        stream = rng.integers(0, 12, size=400, dtype=np.int64)
        deduped = stream[run_heads(stream)]
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
        assert run_heads(lines).tolist() == [
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
