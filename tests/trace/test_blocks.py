"""Vectorized grid generation vs. per-iteration recording.

The contract under test: :func:`repro.trace.blocks.grid_to_lines` emits
exactly the run-length stream that recording the same loop nest one
outer iteration at a time would produce (after merging adjacent runs) —
the statistics-preserving invariant the vectorized app kernels rely on.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cache.config import CacheConfig
from repro.cache.hierarchy import CacheHierarchy
from repro.mem.arrays import RefSegment
from repro.trace import blocks
from repro.trace.blocks import SegmentSweep, grid_to_lines
from repro.trace.recorder import (
    TraceRecorder,
    interleave_segments,
    segment_to_lines,
)

LINE_BITS = 5


def shifted(sweep: SegmentSweep, iteration: int) -> RefSegment:
    seg = sweep.segment
    return RefSegment(
        base=seg.base + iteration * sweep.step,
        stride=seg.stride,
        count=seg.count,
        element_size=seg.element_size,
    )


def reference_stream(groups, outer, line_bits):
    """Per-iteration recording, then merge adjacent equal runs."""
    lines: list[int] = []
    counts: list[int] = []

    def extend(chunk_lines, chunk_counts):
        for line, count in zip(chunk_lines, chunk_counts):
            if lines and lines[-1] == line:
                counts[-1] += count
            else:
                lines.append(line)
                counts.append(count)

    for iteration in range(outer):
        for group in groups:
            segments = [shifted(sweep, iteration) for sweep in group]
            if len(segments) == 1:
                extend(*segment_to_lines(segments[0], line_bits))
            else:
                extend(*interleave_segments(segments, line_bits))
    return lines, counts


def grid_lists(groups, outer, line_bits):
    """:func:`grid_to_lines`'s int64 arrays as lists, to compare with
    the per-iteration spec."""
    lines, counts = grid_to_lines(groups, outer, line_bits)
    return lines.tolist(), counts.tolist()


class TestGridToLines:
    def test_single_sweep_matches_per_iteration(self):
        groups = [[SegmentSweep(RefSegment(0, 8, 16, 8), step=128)]]
        assert grid_lists(groups, 10, LINE_BITS) == reference_stream(
            groups, 10, LINE_BITS
        )

    def test_loop_invariant_sweep_repeats(self):
        # step=0 walks the same segment every outer trip.
        groups = [[SegmentSweep(RefSegment(64, 8, 8, 8))]]
        lines, counts = grid_lists(groups, 3, LINE_BITS)
        # Each trip walks lines 2..3; trips don't merge (3 then 2).
        assert lines == [2, 3, 2, 3, 2, 3]
        assert sum(counts) == 24
        assert grid_lists(groups, 3, LINE_BITS) == reference_stream(
            groups, 3, LINE_BITS
        )

    def test_interleaved_group_matches_per_iteration(self):
        groups = [
            [
                SegmentSweep(RefSegment(0, 8, 12, 8), step=96),
                SegmentSweep(RefSegment(4096, 8, 12, 8)),
            ],
            [SegmentSweep(RefSegment(8192, 0, 12, 8), step=8)],
        ]
        assert grid_lists(groups, 7, LINE_BITS) == reference_stream(
            groups, 7, LINE_BITS
        )

    def test_chunked_conversion_stitches_runs(self, monkeypatch):
        # Force tiny chunks so the boundary-run stitch path executes;
        # the stream must not change.
        groups = [
            [SegmentSweep(RefSegment(0, 8, 8, 8), step=0)],
            [SegmentSweep(RefSegment(1024, 8, 8, 8), step=64)],
        ]
        expected = grid_lists(groups, 50, LINE_BITS)
        monkeypatch.setattr(blocks, "_CHUNK_ELEMENTS", 16)
        assert grid_lists(groups, 50, LINE_BITS) == expected
        assert expected == reference_stream(groups, 50, LINE_BITS)

    def test_record_grid_feeds_hierarchy_identically(self):
        def build():
            l1 = CacheConfig("L1", 256, 32, 1)
            l2 = CacheConfig("L2", 1024, 128, 2)
            return CacheHierarchy(l1, l1, l2)

        groups = [
            [
                SegmentSweep(RefSegment(0, 8, 16, 8), step=128),
                SegmentSweep(RefSegment(4096, 8, 16, 8)),
            ]
        ]
        grid_hierarchy = build()
        TraceRecorder(grid_hierarchy).record_grid(groups, 20, writes=20)

        loop_hierarchy = build()
        loop = TraceRecorder(loop_hierarchy)
        for i in range(20):
            loop.record_interleaved(
                [shifted(sweep, i) for sweep in groups[0]], writes=1
            )
        assert grid_hierarchy.snapshot() == loop_hierarchy.snapshot()

    @settings(max_examples=40, deadline=None)
    @given(
        outer=st.integers(1, 12),
        data=st.data(),
    )
    def test_property_matches_per_iteration(self, outer, data):
        n_groups = data.draw(st.integers(1, 3))
        groups = []
        for g in range(n_groups):
            width = data.draw(st.integers(1, 3))
            count = data.draw(st.integers(1, 20))
            group = []
            for s in range(width):
                base = 8 * data.draw(st.integers(0, 400))
                stride = 8 * data.draw(st.integers(-8, 8))
                step = 8 * data.draw(st.integers(-16, 16))
                group.append(
                    SegmentSweep(RefSegment(base, stride, count, 8), step=step)
                )
            groups.append(group)
        assert grid_lists(groups, outer, LINE_BITS) == reference_stream(
            groups, outer, LINE_BITS
        )


class TestGridValidation:
    def test_outer_must_be_positive(self):
        groups = [[SegmentSweep(RefSegment(0, 8, 4, 8))]]
        with pytest.raises(ValueError, match="positive"):
            grid_to_lines(groups, 0, LINE_BITS)

    def test_empty_groups_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            grid_to_lines([], 1, LINE_BITS)
        with pytest.raises(ValueError, match="non-empty"):
            grid_to_lines([[]], 1, LINE_BITS)

    def test_unequal_counts_rejected(self):
        group = [
            SegmentSweep(RefSegment(0, 8, 4, 8)),
            SegmentSweep(RefSegment(0, 8, 5, 8)),
        ]
        with pytest.raises(ValueError, match="equal counts"):
            grid_to_lines([group], 1, LINE_BITS)

    def test_misaligned_step_rejected(self):
        sweep = SegmentSweep(RefSegment(0, 8, 4, 8), step=12)
        with pytest.raises(ValueError, match="step"):
            grid_to_lines([[sweep]], 1, LINE_BITS)

    def test_straddling_element_rejected(self):
        sweep = SegmentSweep(RefSegment(24, 12, 4, 12))
        with pytest.raises(ValueError, match="does not divide"):
            grid_to_lines([[sweep]], 1, LINE_BITS)
