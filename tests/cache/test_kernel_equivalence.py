"""Golden equivalence: the optimized kernel against the reference model.

The batched kernel (:meth:`ClassifyingCache.process` over dict-per-set
LRU) was tuned for throughput; these tests pin it to the original
per-line, list-based implementation kept in :mod:`repro.cache.reference`.
Randomized (seeded) traces across associativities 1/2/4, with and
without run-length counts, must agree hit-for-hit, miss-class-for-
miss-class, and LRU-order-for-LRU-order.
"""

from __future__ import annotations

import random

import pytest

from repro.cache.classify import ClassifyingCache
from repro.cache.config import CacheConfig
from repro.cache.reference import ReferenceClassifyingCache

ASSOCIATIVITIES = [1, 2, 4]


def make_config(associativity: int) -> CacheConfig:
    # 16 lines of 16 bytes: tiny enough that a short random trace
    # exercises eviction, conflict, and capacity behaviour heavily.
    return CacheConfig("L1D", 256, 16, associativity)


def random_trace(seed: int, length: int, span: int) -> list[int]:
    rng = random.Random(seed)
    # Mix of hot lines (locality) and cold sweeps, plus deliberate
    # consecutive duplicates so the run-length hit fast path is on-trace.
    trace: list[int] = []
    while len(trace) < length:
        roll = rng.random()
        if roll < 0.2 and trace:
            trace.append(trace[-1])  # consecutive duplicate
        elif roll < 0.6:
            trace.append(rng.randrange(0, span // 4))  # hot region
        else:
            trace.append(rng.randrange(0, span))  # cold region
    return trace


def compress(trace: list[int]) -> tuple[list[int], list[int]]:
    """Run-length compress, the recorder's contract for ``counts``."""
    lines: list[int] = []
    counts: list[int] = []
    for line in trace:
        if lines and lines[-1] == line:
            counts[-1] += 1
        else:
            lines.append(line)
            counts.append(1)
    return lines, counts


def assert_same_state(
    optimized: ClassifyingCache, reference: ReferenceClassifyingCache
) -> None:
    assert optimized.stats.as_dict() == reference.stats.as_dict()
    assert optimized.shadow_misses == reference.shadow_misses
    assert optimized._seen == reference._seen
    assert list(optimized.shadow) == reference.shadow_lru_order()
    for set_index in range(optimized.config.num_sets):
        assert list(optimized.sets[set_index]) == reference.real.lru_order(
            set_index
        ), f"LRU order diverged in set {set_index}"


class TestBatchedProcessMatchesReference:
    @pytest.mark.parametrize("associativity", ASSOCIATIVITIES)
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_uncompressed_trace(self, associativity, seed):
        config = make_config(associativity)
        optimized = ClassifyingCache(config)
        reference = ReferenceClassifyingCache(config)
        trace = random_trace(seed, 3000, span=96)
        # Feed in irregular batch sizes so batch boundaries move around.
        rng = random.Random(seed + 100)
        position = 0
        while position < len(trace):
            size = rng.randrange(1, 64)
            batch = trace[position : position + size]
            position += size
            assert optimized.process(batch) == reference.process(batch)
            assert_same_state(optimized, reference)

    @pytest.mark.parametrize("associativity", ASSOCIATIVITIES)
    @pytest.mark.parametrize("seed", [4, 5, 6])
    def test_run_length_compressed_trace(self, associativity, seed):
        config = make_config(associativity)
        optimized = ClassifyingCache(config)
        reference = ReferenceClassifyingCache(config)
        lines, counts = compress(random_trace(seed, 3000, span=96))
        rng = random.Random(seed + 100)
        position = 0
        while position < len(lines):
            size = rng.randrange(1, 64)
            batch = lines[position : position + size]
            batch_counts = counts[position : position + size]
            position += size
            assert optimized.process(batch, batch_counts) == reference.process(
                batch, batch_counts
            )
            assert_same_state(optimized, reference)


class TestBatchBoundaries:
    """Where a stream is cut into batches must not matter: the recorder
    emits batches of any size, and stored-trace replay coalesces them
    into large chunks, both relying on this."""

    @pytest.mark.parametrize("associativity", ASSOCIATIVITIES)
    def test_one_batch_equals_per_entry_batches(self, associativity):
        config = make_config(associativity)
        batched = ClassifyingCache(config)
        per_line = ClassifyingCache(config)
        trace = random_trace(7, 4000, span=128)
        batched_misses = batched.process(trace)
        per_line_misses = [
            miss for line in trace for miss in per_line.process([line])
        ]
        assert batched_misses == per_line_misses
        assert batched.stats.as_dict() == per_line.stats.as_dict()
        assert batched.shadow_misses == per_line.shadow_misses
        assert list(batched.shadow) == list(per_line.shadow)
        for set_index in range(config.num_sets):
            assert list(batched.sets[set_index]) == list(
                per_line.sets[set_index]
            )

    @pytest.mark.parametrize("associativity", ASSOCIATIVITIES)
    def test_counts_only_scale_the_access_total(self, associativity):
        config = make_config(associativity)
        with_counts = ClassifyingCache(config)
        without = ClassifyingCache(config)
        lines, counts = compress(random_trace(8, 2000, span=96))
        with_counts.process(lines, counts)
        without.process(lines)
        expected_extra = sum(counts) - len(lines)
        assert (
            with_counts.stats.accesses == without.stats.accesses + expected_extra
        )
        assert with_counts.stats.misses == without.stats.misses
        assert with_counts.stats.as_dict()["compulsory"] == (
            without.stats.as_dict()["compulsory"]
        )


class TestClassificationInvariants:
    @pytest.mark.parametrize("associativity", ASSOCIATIVITIES)
    def test_classes_partition_misses(self, associativity):
        cache = ClassifyingCache(make_config(associativity))
        cache.process(random_trace(9, 5000, span=160))
        stats = cache.stats
        assert stats.compulsory + stats.capacity + stats.conflict == stats.misses
        assert stats.compulsory == cache.lines_ever_touched

    def test_fully_associative_config_never_conflicts(self):
        # With associativity == num_lines the real cache IS the shadow,
        # so conflict misses must be impossible.
        config = CacheConfig("L1D", 256, 16, 16)
        cache = ClassifyingCache(config)
        cache.process(random_trace(10, 4000, span=128))
        assert cache.stats.conflict == 0
