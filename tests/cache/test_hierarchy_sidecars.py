"""The sidecar rebinding contract on :class:`CacheHierarchy`.

Profiling/verification/telemetry "off" must be structurally free: with
no sidecar attached, ``access_data`` is the uninstrumented class
method — no sidecar code exists on that path at all.  Attaching any
sidecar installs the instrumented per-instance variant; detaching the
last one restores the plain method.  The instrumented variant runs the
plain kernel between its hooks, and a stream-equivalence test holds
the two bindings to identical statistics: attaching a sidecar may
change *observation*, never *simulation*.
"""

import random

from repro.machine import r8000, r10000
from repro.obs.profile import LocalityProfiler


class NoopObserver:
    def on_batch(self, hierarchy, refs):
        pass


def random_stream(seed, batches=400, max_line=2048):
    rng = random.Random(seed)
    stream = []
    for _ in range(batches):
        n = rng.randrange(1, 24)
        lines = [rng.randrange(max_line) for _ in range(n)]
        if rng.random() < 0.5:
            counts = [rng.randrange(1, 5) for _ in range(n)]
        else:
            counts = None
        total = sum(counts) if counts is not None else n
        writes = rng.randrange(total + 1)
        stream.append((lines, counts, writes))
    return stream


class TestRebinding:
    def test_fresh_hierarchy_binds_the_plain_method(self):
        hierarchy = r8000().build_hierarchy()
        assert "access_data" not in vars(hierarchy)

    def test_attaching_any_sidecar_installs_the_instrumented_variant(self):
        for slot in ("oracle", "observer", "profiler"):
            hierarchy = r8000().build_hierarchy()
            setattr(hierarchy, slot, NoopObserver())
            assert "access_data" in vars(hierarchy), slot
            assert (
                hierarchy.access_data.__func__
                is type(hierarchy)._access_data_instrumented
            )

    def test_detaching_the_last_sidecar_restores_the_plain_method(self):
        hierarchy = r8000().build_hierarchy()
        hierarchy.observer = NoopObserver()
        hierarchy.profiler = LocalityProfiler("p", "r8000")
        hierarchy.observer = None
        assert "access_data" in vars(hierarchy)  # profiler still on
        hierarchy.profiler = None
        assert "access_data" not in vars(hierarchy)

    def test_has_sidecars_tracks_every_slot(self):
        for slot in ("oracle", "observer", "profiler", "tap"):
            hierarchy = r8000().build_hierarchy()
            assert not hierarchy.has_sidecars
            setattr(hierarchy, slot, NoopObserver())
            assert hierarchy.has_sidecars, slot
            setattr(hierarchy, slot, None)
            assert not hierarchy.has_sidecars, slot

    def test_both_bindings_return_the_same_miss_lines(self):
        plain = r8000().build_hierarchy()
        instrumented = r8000().build_hierarchy()
        instrumented.observer = NoopObserver()
        for lines, counts, writes in random_stream(seed=99):
            assert plain.access_data(lines, counts, writes) == (
                instrumented.access_data(lines, counts, writes)
            )

    def test_sidecar_slots_read_back(self):
        hierarchy = r8000().build_hierarchy()
        assert hierarchy.oracle is None
        assert hierarchy.observer is None
        assert hierarchy.profiler is None
        sidecar = NoopObserver()
        hierarchy.observer = sidecar
        assert hierarchy.observer is sidecar


class TestVariantEquivalence:
    def replay(self, machine, sidecar):
        hierarchy = machine.build_hierarchy()
        if sidecar is not None:
            hierarchy.observer = sidecar
        for lines, counts, writes in random_stream(seed=1234):
            hierarchy.access_data(lines, counts, writes=writes)
        return hierarchy

    def test_instrumented_variant_simulates_identically(self):
        for machine in (r8000(), r10000()):
            plain = self.replay(machine, None)
            instrumented = self.replay(machine, NoopObserver())
            assert "access_data" not in vars(plain)
            assert "access_data" in vars(instrumented)
            assert plain.snapshot() == instrumented.snapshot()

    def test_profiler_does_not_perturb_simulation(self):
        plain = self.replay(r8000(), None)
        hierarchy = r8000().build_hierarchy()
        profiler = LocalityProfiler("equiv", "r8000")
        hierarchy.profiler = profiler
        for lines, counts, writes in random_stream(seed=1234):
            hierarchy.access_data(lines, counts, writes=writes)
        assert plain.snapshot() == hierarchy.snapshot()
        # ... and the profiler's own totals agree with the hierarchy's.
        assert profiler._refs == hierarchy.snapshot().data_refs
        assert profiler._l1_misses == hierarchy.l1d.stats.misses
        assert profiler._l2_misses == hierarchy.l2.stats.misses
