"""Tests for the two-level cache hierarchy."""

import pytest

from repro.cache.config import CacheConfig
from repro.cache.hierarchy import CacheHierarchy


def make_hierarchy(l1_size=128, l1_line=16, l2_size=512, l2_line=64):
    l1i = CacheConfig("L1I", l1_size, l1_line, 1)
    l1d = CacheConfig("L1D", l1_size, l1_line, 1)
    l2 = CacheConfig("L2", l2_size, l2_line, 2)
    return CacheHierarchy(l1i, l1d, l2)


class TestDataPath:
    def test_l2_sees_only_l1_misses(self):
        h = make_hierarchy()
        h.access_data([0, 0, 0, 0])
        assert h.l1d.stats.accesses == 4
        assert h.l1d.stats.misses == 1
        assert h.l2.stats.accesses == 1

    def test_l1_hit_never_reaches_l2(self):
        h = make_hierarchy()
        h.access_data([3])
        l2_before = h.l2.stats.accesses
        h.access_data([3])
        assert h.l2.stats.accesses == l2_before

    def test_l1_lines_map_to_l2_lines(self):
        # L2 lines are 4x L1 lines: L1 lines 0..3 share L2 line 0.
        h = make_hierarchy()
        h.access_data([0, 1, 2, 3])
        assert h.l1d.stats.misses == 4
        assert h.l2.stats.accesses == 4
        assert h.l2.stats.misses == 1  # one 64-byte L2 line

    def test_returns_l1_and_l2_miss_lines(self):
        # L1 lines 0..3 and 8 miss; L2 (4 L1 lines per L2 line) sees
        # them as lines 0, 0, 0, 0, 2 and misses on the first touches.
        h = make_hierarchy()
        assert h.access_data([0, 1, 2, 3, 8]) == ([0, 1, 2, 3, 8], [0, 2])
        assert h.access_data([1, 2]) == ([], [])  # L1 hits
        # Line 8 evicted line 0 from the direct-mapped L1; L2 still has it.
        assert h.access_data([0]) == ([0], [])

    def test_equal_line_sizes_pass_through(self):
        h = make_hierarchy(l1_line=16, l2_line=16)
        h.access_data([5])
        assert h.l2.stats.misses == 1

    def test_l2_line_smaller_than_l1_rejected(self):
        l1 = CacheConfig("L1", 128, 32, 1)
        l2 = CacheConfig("L2", 512, 16, 2)
        with pytest.raises(ValueError, match="line size"):
            CacheHierarchy(l1, l1, l2)

    def test_counts_expand_reference_totals(self):
        h = make_hierarchy()
        h.access_data([0, 1], counts=[10, 20], writes=5)
        stats = h.snapshot()
        assert stats.data_refs == 30
        assert stats.data_reads == 25
        assert stats.data_writes == 5

    def test_writes_beyond_total_rejected(self):
        h = make_hierarchy()
        with pytest.raises(ValueError, match="exceeds"):
            h.access_data([0], writes=2)

    def test_negative_writes_rejected(self):
        h = make_hierarchy()
        with pytest.raises(ValueError, match="non-negative"):
            h.access_data([1, 2, 3], writes=-1)
        assert h.snapshot().data_refs == 0

    def test_negative_line_rejected(self):
        # The direct-mapped kernels mark an empty set with -1, so a
        # negative line would hit a set that holds nothing.
        h = make_hierarchy()
        with pytest.raises(ValueError, match="non-negative"):
            h.access_data([3, -1, 4])
        assert h.snapshot().data_refs == 0
        assert h.l1d.stats.accesses == 0


class TestInstructionSide:
    def test_fetches_counted_not_simulated(self):
        h = make_hierarchy()
        h.fetch_instructions(1000)
        stats = h.snapshot()
        assert stats.inst_fetches == 1000
        assert h.l1d.stats.accesses == 0

    def test_negative_fetch_rejected(self):
        h = make_hierarchy()
        with pytest.raises(ValueError):
            h.fetch_instructions(-1)

    def test_code_footprint_charges_compulsory(self):
        h = make_hierarchy()
        h.charge_code_footprint(256)
        assert h.l1i_compulsory == 256 // 16
        stats = h.snapshot()
        assert stats.l1.compulsory == 256 // 16
        assert stats.l2.compulsory == 256 // 64
        assert stats.l2.misses == 256 // 64
        assert stats.l2.accesses == 256 // 64

    def test_code_footprint_does_not_touch_data_region(self):
        h = make_hierarchy()
        h.charge_code_footprint(256)
        h.access_data([0])
        assert h.l1d.stats.misses == 1  # data line 0 still cold

    def test_code_footprint_leaves_l2_classification_state_alone(self):
        # Regression: the code fill used to run through ``l2.process``,
        # occupying the fully-associative shadow and the first-touch
        # history, which skewed early data misses between capacity and
        # conflict.  The fill is now charged straight into the snapshot.
        h = make_hierarchy()
        h.charge_code_footprint(4096)
        assert h.l2.stats.accesses == 0
        assert h.l2.lines_ever_touched == 0
        assert len(h.l2.shadow) == 0

    def test_data_classification_identical_with_and_without_code(self):
        # A data trace long enough to generate capacity and conflict
        # misses must classify identically whether or not a code
        # footprint was charged first.
        import random

        rng = random.Random(20260806)
        trace = [rng.randrange(0, 4096) for _ in range(20_000)]

        plain = make_hierarchy()
        plain.access_data(trace)
        with_code = make_hierarchy()
        with_code.charge_code_footprint(8192)
        with_code.access_data(trace)

        assert with_code.l1d.stats.as_dict() == plain.l1d.stats.as_dict()
        assert with_code.l2.stats.as_dict() == plain.l2.stats.as_dict()
        # The snapshots differ only by the code charge itself.
        code_lines = -(-8192 // with_code.l2.config.line_size)
        plain_l2 = plain.snapshot().l2
        coded_l2 = with_code.snapshot().l2
        assert coded_l2.accesses == plain_l2.accesses + code_lines
        assert coded_l2.misses == plain_l2.misses + code_lines
        assert coded_l2.compulsory == plain_l2.compulsory + code_lines
        assert coded_l2.capacity == plain_l2.capacity
        assert coded_l2.conflict == plain_l2.conflict


class TestRates:
    def test_l1_rate_counts_instructions_in_denominator(self):
        h = make_hierarchy()
        h.fetch_instructions(90)
        h.access_data([0] * 10)
        stats = h.snapshot()
        assert stats.l1_miss_rate == pytest.approx(1 / 100)

    def test_l2_rate_is_local_per_l1_miss(self):
        h = make_hierarchy()
        h.access_data([0, 1, 2, 3])  # 4 L1 misses, 1 L2 miss
        stats = h.snapshot()
        assert stats.l2_miss_rate == pytest.approx(0.25)

    def test_zero_activity_rates_are_zero(self):
        stats = make_hierarchy().snapshot()
        assert stats.l1_miss_rate == 0.0
        assert stats.l2_miss_rate == 0.0


class TestLifecycle:
    def test_flush_preserves_statistics(self):
        h = make_hierarchy()
        h.access_data([0, 1])
        before = h.snapshot()
        h.flush()
        after = h.snapshot()
        assert after.l1.misses == before.l1.misses
        # Flushed lines miss again but are not compulsory.
        h.access_data([0])
        assert h.l1d.stats.compulsory == before.l1.compulsory

    def test_reset_zeroes_everything(self):
        h = make_hierarchy()
        h.access_data([0, 1])
        h.fetch_instructions(10)
        h.reset()
        stats = h.snapshot()
        assert stats.inst_fetches == 0
        assert stats.data_refs == 0
        assert stats.l1.accesses == 0
        assert stats.l2.accesses == 0

    def test_snapshot_is_independent_copy(self):
        h = make_hierarchy()
        h.access_data([0])
        first = h.snapshot()
        h.access_data([100])
        assert first.l1.misses == 1
