"""The locality profiler: total attribution, determinism, payloads.

The acceptance bar for the profiler is quantitative: on all four paper
applications it must attribute at least 99% of simulated references to
a (fork site, bin) pair.  By construction it attributes *all* of them —
references outside any dispatch land in ``("(main)", "-")`` — so the
tests assert the stronger invariant too: per-context counters sum
exactly to the run's totals, for references, writes, both miss levels,
and the three L1 miss classes.
"""

import json
import random
from bisect import bisect_right
from types import SimpleNamespace

import numpy as np
import pytest

from repro.apps.matmul.config import MatmulConfig
from repro.apps.matmul.programs import threaded
from repro.exp import run_experiment
from repro.machine import r8000, r10000
from repro.obs.profile import (
    MAIN_SITE,
    NO_BIN,
    PROFILE_SCHEMA_VERSION,
    UNMAPPED,
    LocalityProfiler,
    ProfileCollector,
    check_schema,
    collector_scope,
    current_collector,
    fold_object_name,
    profile_artifact_name,
)
from repro.sim.engine import Simulator

#: One cache experiment per paper application: matmul, PDE, SOR, N-body.
APP_EXPERIMENTS = ("table3", "table5", "table7", "table9")


@pytest.fixture(scope="module")
def app_profiles():
    """Profile payloads for every paper app's cache table (quick mode)."""
    payloads = {}
    for experiment_id in APP_EXPERIMENTS:
        collector = ProfileCollector()
        with collector_scope(collector):
            run_experiment(experiment_id, quick=True)
        payloads[experiment_id] = collector.payload(experiment_id)
    return payloads


class TestAttribution:
    def test_schema_and_shape(self, app_profiles):
        for experiment_id, payload in app_profiles.items():
            check_schema(payload)
            assert payload["experiment_id"] == experiment_id
            assert payload["entries"], experiment_id

    def test_at_least_99_percent_attributed_on_every_app(self, app_profiles):
        for experiment_id, payload in app_profiles.items():
            for entry in payload["entries"]:
                fraction = entry["totals"]["attributed_fraction"]
                assert fraction >= 0.99, (experiment_id, entry["program"])

    def test_context_counters_sum_to_totals(self, app_profiles):
        for payload in app_profiles.values():
            for entry in payload["entries"]:
                totals = entry["totals"]
                contexts = entry["contexts"]
                for context_key, total_key in (
                    ("refs", "refs"),
                    ("writes", "writes"),
                    ("l1_misses", "l1_misses"),
                    ("l2_misses", "l2_misses"),
                ):
                    assert (
                        sum(c[context_key] for c in contexts)
                        == totals[total_key]
                    ), (entry["program"], context_key)
                classes = sum(
                    c["l1_compulsory"] + c["l1_capacity"] + c["l1_conflict"]
                    for c in contexts
                )
                assert classes == totals["l1_misses"], entry["program"]

    def test_threaded_programs_charge_real_sites_and_bins(self, app_profiles):
        for experiment_id, payload in app_profiles.items():
            threaded_entries = [
                e
                for e in payload["entries"]
                if e["totals"]["dispatch_refs"] > 0
            ]
            assert threaded_entries, experiment_id
            for entry in threaded_entries:
                sites = {c["site"] for c in entry["contexts"]}
                bins = {c["bin"] for c in entry["contexts"]}
                assert sites - {MAIN_SITE}, entry["program"]
                assert bins - {NO_BIN}, entry["program"]

    def test_object_attribution_is_total(self, app_profiles):
        # Paper apps run without a page mapper, so every reference and
        # every miss at both levels resolves to an owning segment (or
        # the explicit "(unmapped)" bucket) — nothing is dropped.
        for entry in app_profiles["table5"]["entries"]:
            totals = entry["totals"]
            objects = entry["objects"]
            assert objects, entry["program"]
            assert sum(o["refs"] for o in objects) == totals["refs"]
            assert (
                sum(o["l1_misses"] for o in objects) == totals["l1_misses"]
            )
            assert (
                sum(o["l2_misses"] for o in objects) == totals["l2_misses"]
            )

    def test_timeline_is_monotonic_and_bounded(self, app_profiles):
        for payload in app_profiles.values():
            for entry in payload["entries"]:
                timeline = entry["timeline"]
                assert timeline, entry["program"]
                batches = [s["batch"] for s in timeline]
                assert batches == sorted(set(batches))
                # finish() flushes the tail: the last sample covers the
                # final partial interval.
                assert batches[-1] == entry["totals"]["batches"]
                for sample in timeline:
                    for level in ("l1", "l2"):
                        rate = sample[level]["miss_rate"]
                        assert 0.0 <= rate <= 1.0
                        occupancy = sample[level]["occupancy"]
                        assert all(
                            0.0 <= f <= 1.0 for f in occupancy.values()
                        )
                        # Each fraction is rounded to 6 places, so the
                        # sum may exceed 1 by half an ulp per segment.
                        assert (
                            sum(occupancy.values())
                            <= 1.0 + 5e-7 * max(len(occupancy), 1)
                        )


class TestDeterminism:
    def test_repeated_runs_serialize_identically(self):
        payloads = []
        for _ in range(2):
            collector = ProfileCollector()
            with collector_scope(collector):
                run_experiment("table7", quick=True)
            payloads.append(collector.payload("table7"))
        a, b = (json.dumps(p, sort_keys=True) for p in payloads)
        assert a == b


class TestCollectorScope:
    def test_profiling_is_off_by_default(self):
        assert current_collector() is None
        # A run outside any scope must not grow anybody's collector.
        bystander = ProfileCollector()
        Simulator(r8000()).run(threaded(MatmulConfig(n=16)), name="m")
        assert bystander.profilers == []

    def test_scope_collects_one_profiler_per_run(self):
        collector = ProfileCollector()
        with collector_scope(collector):
            Simulator(r8000()).run(threaded(MatmulConfig(n=16)), name="m")
            Simulator(r10000()).run(threaded(MatmulConfig(n=16)), name="m")
        assert len(collector.profilers) == 2
        payload = collector.payload("smoke")
        assert payload["schema"] == PROFILE_SCHEMA_VERSION
        assert [e["seq"] for e in payload["entries"]] == [0, 1]
        machines = [e["machine"] for e in payload["entries"]]
        assert machines == ["R8000", "R10000"]

    def test_scope_restores_previous_collector(self):
        outer = ProfileCollector()
        with collector_scope(outer):
            with collector_scope(ProfileCollector()):
                pass
            assert current_collector() is outer
        assert current_collector() is None


def reference_owner(allocations, address: int) -> str:
    """The folded name of the allocation owning ``address``, one
    ``bisect_right`` per address: the per-entry spec of the profiler's
    array-at-a-time lookup."""
    ordered = sorted(allocations, key=lambda a: a.base)
    i = bisect_right([a.base for a in ordered], address) - 1
    if i >= 0 and address < ordered[i].end:
        return fold_object_name(ordered[i].name)
    return UNMAPPED


class TestObjectCharge:
    """The array-at-a-time object charge and occupancy against a
    per-entry bisect over the allocations, on random address spaces
    with gaps, folded instance names and lines outside every
    allocation."""

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_a_per_entry_lookup(self, seed):
        rng = random.Random(seed)
        # Sizes and gaps in whole 32-byte lines, or odd, so line
        # addresses land on allocation bases and ends.
        allocations, base = [], rng.choice([0, 32, 40])
        for index in range(rng.randrange(1, 12)):
            size = rng.choice([32 * rng.randrange(1, 12), rng.randrange(1, 400)])
            name = rng.choice(["A", "grid", f"th_group_{index}"])
            allocations.append(SimpleNamespace(name=name, base=base, end=base + size))
            base += size + rng.choice([0, 0, 32, 17])
        rng.shuffle(allocations)
        hierarchy = r8000(64).build_hierarchy()
        l1_bits = hierarchy.l1d.config.line_bits
        l2_bits = hierarchy.l2.config.line_bits
        profiler = LocalityProfiler("p", "m", space=SimpleNamespace(allocations=allocations))
        expected: dict[str, list[int]] = {}
        for _ in range(6):
            n = rng.randrange(0, 40)
            lines = np.array(
                [rng.randrange(0, (base >> l1_bits) + 3) for _ in range(n)],
                dtype=np.int64,
            )
            counts = np.array([rng.randrange(1, 5) for _ in range(n)])
            l1 = [int(line) for line in lines if rng.random() < 0.4]
            l2 = [line >> (l2_bits - l1_bits) for line in l1 if rng.random() < 0.5]
            profiler._charge_objects(hierarchy, lines, counts, np.array(l1, dtype=np.int64), l2)
            for column, misses, bits, weights in (
                (0, lines.tolist(), l1_bits, counts.tolist()),
                (1, l1, l1_bits, [1] * len(l1)),
                (2, l2, l2_bits, [1] * len(l2)),
            ):
                for line, weight in zip(misses, weights):
                    name = reference_owner(allocations, line << bits)
                    expected.setdefault(name, [0, 0, 0])[column] += weight
        charged = {name: slot for name, slot in profiler._objects.items() if any(slot)}
        assert charged == {name: slot for name, slot in expected.items() if any(slot)}

        resident = np.array(
            [rng.randrange(0, (base >> l1_bits) + 3) for _ in range(300)],
            dtype=np.int64,
        )
        hierarchy.l1d.process(resident)
        held: dict[str, int] = {}
        for cache_set in hierarchy.l1d.sets:
            for line in cache_set:
                name = reference_owner(allocations, line << l1_bits)
                held[name] = held.get(name, 0) + 1
        num_lines = hierarchy.l1d.config.num_lines
        assert profiler._occupancy(hierarchy, "l1", hierarchy.l1d) == {
            name: round(count / num_lines, 6) for name, count in sorted(held.items())
        }


class TestHelpers:
    def test_fold_object_name_strips_instance_counters(self):
        assert fold_object_name("th_group_17") == "th_group"
        assert fold_object_name("th_bin_3") == "th_bin"

    def test_fold_object_name_keeps_plain_names(self):
        assert fold_object_name("A") == "A"
        assert fold_object_name("grid") == "grid"
        assert fold_object_name("v2") == "v2"  # no underscore: not a counter

    def test_artifact_name(self):
        assert profile_artifact_name("table3") == "table3.profile"

    def test_check_schema_rejects_unknown_versions(self):
        with pytest.raises(ValueError, match="unsupported profile schema"):
            check_schema({"schema": PROFILE_SCHEMA_VERSION + 1})
        with pytest.raises(ValueError, match="unsupported profile schema"):
            check_schema({})
