"""Golden equivalence: the optimized kernel against the reference model.

The batched kernel (:meth:`ClassifyingCache.process` over dict-per-set
LRU) was tuned for throughput; these tests pin it to the original
per-line, list-based implementation kept in :mod:`repro.cache.reference`.
Randomized (seeded) traces across associativities 1/2/4, with and
without run-length counts, must agree hit-for-hit, miss-class-for-
miss-class, and LRU-order-for-LRU-order, on both paths: the dict loop
and the array path that batches of at least ``ARRAY_KERNEL_ENTRIES``
entries and the level's line count take, at associativities 1, 2, 4,
8 and fully associative.
"""

from __future__ import annotations

import random
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.classify import (
    ARRAY_KERNEL_ENTRIES,
    ClassifyingCache,
    lru_hits,
    set_lru_misses,
)
from repro.cache.config import CacheConfig
from repro.cache.hierarchy import CacheHierarchy
from repro.cache.reference import (
    ReferenceClassifyingCache,
    ReferenceSetAssociativeCache,
    shadow_hit_bits,
)
from repro.obs.profile import UNMAPPED, LocalityProfiler

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
        assert list(batched_misses) == per_line_misses
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


def reference_batch(reference, batch, counts):
    """Feed ``batch`` to the reference one access at a time; return its
    misses and the batch positions where its shadow missed."""
    misses, positions = [], []
    for index, line in enumerate(batch):
        before = reference.shadow_misses
        if not reference.access(line):
            misses.append(line)
        if reference.shadow_misses > before:
            positions.append(index)
        reference.stats.accesses += counts[index] - 1
    return misses, positions


def array_batch_entries(config: CacheConfig) -> int:
    """The shortest batch the array path takes on ``config``."""
    return max(ARRAY_KERNEL_ENTRIES, config.num_lines)


#: (cache bytes, line span, associativity): 16- and 256-line caches of
#: 16-byte lines, direct-mapped to fully associative.
ARRAY_CASES = [
    pytest.param(
        size, span, ways,
        id=f"{size}-{span}" + ("" if ways == 1 else f"-{ways}way"),
    )
    for size, span, lines in [(256, 96, 16), (4096, 1200, 256)]
    for ways in [1, 2, 4, 8, lines]
]


class TestArrayPath:
    """Batches alternate between the dict loop (1-63 entries) and the
    array path (at least ``ARRAY_KERNEL_ENTRIES`` entries and the
    level's line count), with a flush between some of them, so each
    path starts from state the other one, or a flush, left."""

    @pytest.mark.parametrize("size,span,ways", ARRAY_CASES)
    @pytest.mark.parametrize("seed", [11, 12, 13])
    def test_alternating_paths_match_reference(self, size, span, ways, seed):
        config = CacheConfig("L1D", size, 16, ways)
        optimized = ClassifyingCache(config)
        reference = ReferenceClassifyingCache(config)
        lines, counts = compress(random_trace(seed, 14000, span=span))
        rng = random.Random(seed + 100)
        large_at = array_batch_entries(config)
        position, large = 0, seed % 2 == 0
        while position < len(lines):
            if large:
                length = rng.randrange(large_at, 2 * large_at)
            else:
                length = rng.randrange(1, 64)
            batch = lines[position : position + length]
            batch_counts = counts[position : position + length]
            position += length
            large = not large
            misses = optimized.process(
                np.asarray(batch, dtype=np.int64), batch_counts
            )
            expected, positions = reference_batch(
                reference, batch, batch_counts
            )
            assert list(misses) == expected
            array_path = isinstance(misses, np.ndarray)
            assert array_path == (len(batch) >= large_at)
            assert list(optimized.shadow_miss_positions) == positions
            assert_same_state(optimized, reference)
            if rng.random() < 0.25:
                optimized.flush()
                reference.flush()

    def test_batches_shorter_than_the_level_take_the_loop(self):
        config = CacheConfig("L2", 1 << 16, 16, 4)  # 4,096 lines
        cache = ClassifyingCache(config)
        reference = ReferenceClassifyingCache(config)
        lines = random_trace(15, 6 * config.num_lines, span=8000)
        for start, end, array_path in [
            (0, ARRAY_KERNEL_ENTRIES, False),
            (ARRAY_KERNEL_ENTRIES, config.num_lines, False),
            (config.num_lines, 3 * config.num_lines, True),
        ]:
            misses = cache.process(lines[start:end])
            assert isinstance(misses, np.ndarray) == array_path
            assert list(misses) == reference.process(lines[start:end])
            assert_same_state(cache, reference)

    def test_flush_empties_what_the_array_path_reads(self):
        config = make_config(1)
        cache = ClassifyingCache(config)
        lines = random_trace(14, 3 * ARRAY_KERNEL_ENTRIES, span=96)
        cache.process(lines[:ARRAY_KERNEL_ENTRIES])
        cache.flush()
        assert not cache.shadow and not any(cache.sets)
        reference = ReferenceClassifyingCache(config)
        reference._seen = set(cache._seen)
        reference.stats.merge(cache.stats)
        reference.shadow_misses = cache.shadow_misses
        rest = lines[ARRAY_KERNEL_ENTRIES:]
        assert list(cache.process(rest)) == reference.process(rest)
        assert_same_state(cache, reference)


class TestShadowVerdicts:
    """A batch given the shadow's verdicts, as stored-trace replay passes
    them, leaves the level without a shadow to continue from."""

    def test_verdicts_of_the_wrong_length_raise(self):
        cache = ClassifyingCache(make_config(2))
        lines = np.array([1, 2, 2, 3], dtype=np.int64)  # three run heads
        for wrong in (2, 4):
            with pytest.raises(ValueError, match="shadow verdicts"):
                cache.process(lines, shadow_hits=np.ones(wrong, np.uint8))

    @pytest.mark.parametrize("ways", [1, 2])
    def test_a_batch_on_its_own_shadow_after_verdicts_raises(self, ways):
        cache = ClassifyingCache(make_config(ways))
        cache.process(
            np.array([1, 2, 3], dtype=np.int64),
            shadow_hits=np.zeros(3, np.uint8),
        )
        assert cache.shadow_misses == 3
        for batch in ([4], random_trace(16, 2 * ARRAY_KERNEL_ENTRIES, 96)):
            with pytest.raises(ValueError, match="no shadow"):
                cache.process(batch)
        cache.flush()
        assert cache.process([4]) == [4]


class TestStateHandoff:
    """An array batch leaves the level's state as arrays: the readers
    (``sets``, the audits, the profiler's occupancy timeline) and a
    dict batch after it see the structures the reference holds, and so
    does the next array batch."""

    CONFIG = CacheConfig("L2", 4096, 16, 4)  # 256 lines in 64 sets

    def feed(self, cache, reference, lines, array_path):
        misses = cache.process(lines)
        assert isinstance(misses, np.ndarray) == array_path
        assert list(misses) == reference.process(lines)

    def test_readers_and_the_dict_loop_between_array_batches(self):
        cache = ClassifyingCache(self.CONFIG)
        reference = ReferenceClassifyingCache(self.CONFIG)
        lines = random_trace(21, 2 * ARRAY_KERNEL_ENTRIES + 50, span=700)
        self.feed(cache, reference, lines[:ARRAY_KERNEL_ENTRIES], True)
        assert cache.set_violations() == []
        assert cache.shadow_violations() == []
        assert_same_state(cache, reference)
        self.feed(
            cache, reference,
            lines[ARRAY_KERNEL_ENTRIES:ARRAY_KERNEL_ENTRIES + 50], False,
        )
        assert_same_state(cache, reference)
        self.feed(cache, reference, lines[ARRAY_KERNEL_ENTRIES + 50:], True)
        assert_same_state(cache, reference)

    @pytest.mark.parametrize("empty", ["flush", "reset"])
    def test_flush_and_reset_between_array_batches(self, empty):
        cache = ClassifyingCache(self.CONFIG)
        reference = ReferenceClassifyingCache(self.CONFIG)
        lines = random_trace(22, 2 * ARRAY_KERNEL_ENTRIES, span=700)
        self.feed(cache, reference, lines[:ARRAY_KERNEL_ENTRIES], True)
        getattr(cache, empty)()
        if empty == "flush":
            reference.flush()
        else:
            reference = ReferenceClassifyingCache(self.CONFIG)
        self.feed(cache, reference, lines[ARRAY_KERNEL_ENTRIES:], True)
        assert_same_state(cache, reference)

    def test_profiler_occupancy_reads_the_array_state(self):
        # A 4-line L1D passes nearly every access on, so most L2
        # batches are long enough for its array path; the profiler
        # samples after every batch.
        tiny = CacheConfig("L1D", 64, 16, 1)
        hierarchy = CacheHierarchy(tiny, tiny, self.CONFIG)
        profiler = hierarchy.profiler = LocalityProfiler("p", "m", interval=1)
        reference = ReferenceClassifyingCache(self.CONFIG)
        rng = random.Random(23)
        array_batches = 0
        for _ in range(6):
            length = rng.choice([40, 2 * ARRAY_KERNEL_ENTRIES])
            batch = [rng.randrange(900) for _ in range(length)]
            l1_misses, l2_misses = hierarchy.access_data(batch)
            array_batches += isinstance(l2_misses, np.ndarray)
            assert list(l2_misses) == reference.process(list(l1_misses))
            resident = sum(
                len(reference.real.lru_order(index))
                for index in range(self.CONFIG.num_sets)
            )
            occupancy = profiler.entry(0)["timeline"][-1]["l2"]["occupancy"]
            assert occupancy == {
                UNMAPPED: round(resident / self.CONFIG.num_lines, 6)
            }
            assert_same_state(hierarchy.l2, reference)
        assert array_batches >= 2


def last_distinct(stream: list[int], capacity: int) -> list[int]:
    """The last ``capacity`` distinct lines of ``stream``, least
    recently used first: an LRU cache's contents after it."""
    kept: list[int] = []
    for line in reversed(stream):
        if line not in kept:
            kept.append(line)
    return kept[:capacity][::-1]


@st.composite
def split_streams(draw):
    """(capacity, stream, cuts): uniform random lines over spans from 2
    to 3C + 2 lines, so reuse windows are both shorter and longer than
    the capacity; each cut says whether the cache is flushed there.

    The lines come from a seeded generator, not element by element:
    the boundary cases (a return to the LRU line just C accesses after
    its last use) need long runs of distinct lines, which Hypothesis's
    small-value bias rarely draws."""
    capacity = draw(st.integers(1, 70))
    span = draw(st.integers(2, 3 * capacity + 2))
    length = draw(st.integers(0, 400))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    stream = [rng.randrange(span) for _ in range(length)]
    cuts = draw(st.lists(
        st.tuples(st.integers(0, length), st.booleans()), max_size=6
    ))
    return capacity, stream, sorted(cuts)


class TestLruHits:
    """:func:`lru_hits` fed a stream batch by batch, carrying its
    contents forward, against the list LRU of
    :func:`shadow_hit_bits`."""

    @settings(max_examples=300, deadline=None)
    @given(case=split_streams())
    def test_split_stream_matches_spec(self, case):
        capacity, stream, cuts = case
        contents = np.empty(0, dtype=np.int64)
        verdicts: list[bool] = []
        expected: list[int] = []
        start = segment = 0
        for cut, flush in [*cuts, (len(stream), False)]:
            hits, contents = lru_hits(
                contents, np.array(stream[start:cut], dtype=np.int64), capacity
            )
            verdicts += hits.tolist()
            start = cut
            if flush:
                expected += shadow_hit_bits(
                    np.array(stream[segment:cut], dtype=np.int64), capacity
                ).tolist()
                segment = cut
                contents = np.empty(0, dtype=np.int64)
        expected += shadow_hit_bits(
            np.array(stream[segment:], dtype=np.int64), capacity
        ).tolist()
        assert verdicts == [bool(bit) for bit in expected]
        assert contents.tolist() == last_distinct(stream[segment:], capacity)


@st.composite
def set_streams(draw):
    """(ways, sets, stream, cuts): uniform random lines over spans
    around ways x sets lines, cut at random points (empty batches
    included)."""
    ways = draw(st.integers(1, 8))
    num_sets = draw(st.sampled_from([1, 2, 4, 8, 16]))
    span = draw(st.integers(1, 3 * ways * num_sets + 2))
    length = draw(st.integers(0, 300))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    stream = [rng.randrange(span) for _ in range(length)]
    cuts = draw(st.lists(st.integers(0, length), max_size=6))
    return ways, num_sets, stream, sorted(cuts)


class TestSetLruMisses:
    """:func:`set_lru_misses` fed a stream batch by batch, carrying its
    contents forward, against :class:`ReferenceSetAssociativeCache`."""

    @settings(max_examples=300, deadline=None)
    @given(case=set_streams())
    def test_split_stream_matches_spec(self, case):
        ways, num_sets, stream, cuts = case
        # The function takes any number of ways; a CacheConfig only
        # powers of two, and the reference reads only these two fields.
        reference = ReferenceSetAssociativeCache(
            SimpleNamespace(num_sets=num_sets, associativity=ways)
        )
        contents = np.empty(0, dtype=np.int64)
        start = 0
        for cut in [*cuts, len(stream)]:
            batch = stream[start:cut]
            start = cut
            miss, contents = set_lru_misses(
                np.array(batch, dtype=np.int64), contents, num_sets - 1, ways
            )
            assert miss.tolist() == [not reference.access(line) for line in batch]
            assert contents.tolist() == [
                line
                for index in range(num_sets)
                for line in reference.lru_order(index)
            ]

    def test_window_count_memory_is_bounded(self):
        # A 256-way set and a replay-chunk-sized batch over 200 lines:
        # about 18K accesses come back after more than 256 others, and
        # each one's window must reach its previous use, so they are
        # counted in several blocks.  Gathered at once, their windows
        # took 109 MB.
        ways = 256
        rng = np.random.default_rng(24)
        lines = rng.integers(0, 200, 1 << 16)
        tracemalloc.start()
        try:
            miss, contents = set_lru_misses(
                lines, np.empty(0, dtype=np.int64), 0, ways
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 48 << 20, f"peaked at {peak / 2**20:.1f} MB"
        reference = ReferenceSetAssociativeCache(
            SimpleNamespace(num_sets=1, associativity=ways)
        )
        assert miss.tolist() == [
            not reference.access(line) for line in lines.tolist()
        ]
        assert contents.tolist() == reference.lru_order(0)
