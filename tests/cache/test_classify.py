"""Tests for single-run miss classification (compulsory/capacity/conflict)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cache.classify import ClassifyingCache, LevelStats, stable_order
from repro.cache.config import CacheConfig
from repro.cache.reference import ReferenceClassifyingCache


def make(size=128, line=16, ways=1):
    return ClassifyingCache(CacheConfig("c", size, line, ways))


class TestLevelStats:
    def test_hits_and_miss_rate(self):
        stats = LevelStats(accesses=10, misses=3)
        assert stats.hits == 7
        assert stats.miss_rate == 0.3

    def test_empty_miss_rate_zero(self):
        assert LevelStats().miss_rate == 0.0

    def test_merge_accumulates(self):
        a = LevelStats(accesses=5, misses=2, compulsory=1, capacity=1)
        b = LevelStats(accesses=3, misses=1, conflict=1)
        a.merge(b)
        assert (a.accesses, a.misses, a.conflict) == (8, 3, 1)

    def test_as_dict_round_trip(self):
        stats = LevelStats(accesses=4, misses=2, compulsory=1, capacity=1)
        assert stats.as_dict()["accesses"] == 4
        assert stats.as_dict()["capacity"] == 1


class TestClassification:
    def test_first_touch_is_compulsory(self):
        cache = make()
        cache.process([0])
        assert cache.stats.compulsory == 1
        assert cache.stats.capacity == 0
        assert cache.stats.conflict == 0

    def test_conflict_miss_detected(self):
        # Direct-mapped, 8 lines/sets: lines 0 and 8 collide while the
        # fully-associative shadow (8 lines) holds both -> conflict.
        cache = make(ways=1)
        cache.process([0])
        cache.process([8])
        cache.process([0])  # would hit fully-associative: conflict
        assert cache.stats.conflict == 1
        assert cache.stats.capacity == 0

    def test_capacity_miss_detected(self):
        # Working set of 16 lines in an 8-line cache: re-touches miss in
        # the shadow too -> capacity.
        cache = make(ways=1)
        for line in range(16):
            cache.process([line])
        for line in range(16):
            cache.process([line])
        assert cache.stats.capacity == 16
        assert cache.stats.compulsory == 16

    def test_fully_associative_cache_never_conflicts(self):
        cache = make(size=128, line=16, ways=8)
        for line in range(100):
            cache.process([line % 24])
        assert cache.stats.conflict == 0

    def test_access_run_counts_repeats_as_hits(self):
        cache = make()
        cache.process([5], counts=[10])
        assert cache.stats.accesses == 10
        assert cache.stats.misses == 1

    def test_flush_preserves_history(self):
        cache = make()
        cache.process([0])
        cache.flush()
        cache.process([0])
        # Second touch after flush is NOT compulsory (seen before) and the
        # shadow was flushed too, so it's a capacity miss by convention.
        assert cache.stats.compulsory == 1
        assert cache.stats.misses == 2

    def test_reset_clears_history(self):
        cache = make()
        cache.process([0])
        cache.reset()
        cache.process([0])
        assert cache.stats.compulsory == 1
        assert cache.stats.misses == 1

    def test_process_returns_miss_lines_in_order(self):
        cache = make(ways=1)
        misses = cache.process([0, 8, 0, 1])
        assert misses == [0, 8, 0, 1]  # 0 and 8 ping-pong in set 0
        # 0 (refetched last) and 1 are now resident: no further misses.
        assert cache.process([1, 0]) == []

    def test_process_with_counts(self):
        cache = make()
        cache.process([0, 1, 0], counts=[4, 2, 3])
        assert cache.stats.accesses == 9
        # Lines 0 and 1 sit in different sets: the re-access of 0 hits.
        assert cache.stats.misses == 2

    def test_process_matches_single_access(self):
        batch = make(ways=2)
        single = ReferenceClassifyingCache(batch.config)
        lines = [0, 4, 8, 0, 12, 4, 0, 8, 16, 0]
        batch.process(lines)
        for line in lines:
            single.access(line)
        assert batch.stats.as_dict() == single.stats.as_dict()


class TestInvariants:
    @settings(max_examples=60)
    @given(
        lines=st.lists(st.integers(0, 40), min_size=1, max_size=400),
        ways=st.sampled_from([1, 2, 4]),
    )
    def test_property_classes_partition_misses(self, lines, ways):
        cache = make(ways=ways)
        cache.process(lines)
        stats = cache.stats
        assert stats.compulsory + stats.capacity + stats.conflict == stats.misses

    @settings(max_examples=60)
    @given(lines=st.lists(st.integers(0, 40), min_size=1, max_size=400))
    def test_property_compulsory_equals_distinct_lines(self, lines):
        cache = make(ways=2)
        cache.process(lines)
        assert cache.stats.compulsory == len(set(lines))
        assert cache.lines_ever_touched == len(set(lines))

    @settings(max_examples=60)
    @given(lines=st.lists(st.integers(0, 40), min_size=1, max_size=400))
    def test_property_fully_associative_has_no_conflicts(self, lines):
        cache = make(size=128, line=16, ways=8)
        cache.process(lines)
        assert cache.stats.conflict == 0

    def test_lru_cyclic_thrash_favours_direct_mapping(self):
        """Associativity is not monotone under LRU: a cyclic sweep one
        line larger than the cache makes fully-associative LRU miss on
        every access, while a direct-mapped cache of equal capacity keeps
        most lines resident.  (This is why the property 'more ways, fewer
        misses' is deliberately NOT asserted anywhere.)"""
        direct = make(ways=1)   # 8 lines / 8 sets
        full = make(ways=8)     # 8 lines / 1 set
        sweep = list(range(9)) * 4
        direct.process(sweep)
        full.process(list(sweep))
        assert full.stats.misses == len(sweep)
        assert direct.stats.misses < full.stats.misses

    @settings(max_examples=40)
    @given(
        lines=st.lists(st.integers(0, 20), min_size=1, max_size=200),
        split=st.integers(0, 200),
    )
    def test_property_batch_equals_split_batches(self, lines, split):
        split = min(split, len(lines))
        one = make(ways=2)
        two = make(ways=2)
        one.process(lines)
        two.process(lines[:split])
        two.process(lines[split:])
        assert one.stats.as_dict() == two.stats.as_dict()


INT64_MAX = (1 << 63) - 1


def guard_span(n: int) -> int:
    """The widest span whose sort keys ``offset * n + position`` fit
    int64."""
    return (1 << 63) // n - 1


class TestStableOrder:
    """:func:`stable_order` returns ``np.argsort(kind="stable")``'s
    permutation on each of its three sorts: the uint16 radix sort
    (spans below 2**16), the unique-key sort, and the stable sort past
    the key overflow guard."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    @pytest.mark.parametrize(
        "span_at",
        [
            lambda n: 0,
            lambda n: 5,
            lambda n: (1 << 16) - 1,
            lambda n: 1 << 16,
            lambda n: guard_span(n),
            lambda n: guard_span(n) + 1,
        ],
        ids=["ties", "small", "2^16-1", "2^16", "guard", "past-guard"],
    )
    def test_equals_the_stable_argsort(self, span_at, data):
        n = data.draw(st.integers(1, 80))
        span = min(span_at(n), INT64_MAX)
        # Negative lows include lru_hits's placeholders (-C..-1).
        low = data.draw(st.one_of(
            st.integers(-100, 0), st.integers(-(1 << 63), INT64_MAX - span)
        ))
        # Few distinct offsets, both ends of the span among them, so
        # ties are common and the span is exact.
        pool = [0, span] + data.draw(
            st.lists(st.integers(0, span), max_size=4)
        )
        offsets = data.draw(
            st.lists(st.sampled_from(pool), min_size=n, max_size=n)
        )
        offsets[0], offsets[-1] = 0, span
        values = np.array([low + offset for offset in offsets], dtype=np.int64)
        assert stable_order(values).tolist() == (
            np.argsort(values, kind="stable").tolist()
        )

    def test_empty(self):
        assert stable_order(np.empty(0, dtype=np.int64)).tolist() == []
