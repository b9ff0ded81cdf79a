"""Vectorized block generation: whole loop nests as one array op.

The per-iteration recording style (``record`` / ``record_interleaved``
once per inner-loop trip) spends most of a simulation in Python call
overhead — tens of thousands of tiny numpy conversions for a single
matmul.  A :class:`SegmentSweep` lifts the *outer* loop into the
conversion: it describes how a segment's base address advances per outer
iteration, so a full two-level nest becomes a single broadcasted address
matrix, one run-length compression, and one record.

Merging per-iteration records into one is statistics-preserving by
construction: the expanded element-reference sequence is identical, and
every consumer of the stream — the L1 kernel, L2 forwarding, read/write
bookkeeping, oracles, the profiler — depends only on that sequence, not
on where batch boundaries fall (the golden-equivalence suite pins this).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.mem.arrays import RefSegment
from repro.trace.recorder import _compress, validate_segment

#: Address-matrix chunk cap: grids larger than this many elements are
#: converted in row-aligned chunks and the run-length streams stitched,
#: bounding peak memory at ~16 MiB of int64 addresses.
_CHUNK_ELEMENTS = 1 << 21


@dataclass(frozen=True)
class SegmentSweep:
    """A :class:`RefSegment` whose base advances ``step`` bytes per outer
    iteration.

    ``step=0`` (the default) models a loop-invariant operand — the same
    segment walked on every outer trip (e.g. the C column reloaded for
    every k in the interchanged matmul).
    """

    segment: RefSegment
    step: int = 0

    def validate(self, line_bits: int) -> None:
        validate_segment(self.segment, line_bits)
        if self.step % self.segment.element_size:
            raise ValueError(
                f"sweep step {self.step} not a multiple of element size "
                f"{self.segment.element_size}: elements may straddle lines"
            )


def grid_to_lines(
    groups: Sequence[Sequence[SegmentSweep]],
    outer: int,
    line_bits: int,
) -> tuple[list[int], list[int]]:
    """Line stream for ``outer`` iterations of a grid of sweeps.

    Each entry of ``groups`` is a list of sweeps walked in lock-step,
    element by element (the :func:`~repro.trace.recorder.interleave_segments`
    model); a singleton group is a plain sequential segment.  One outer
    iteration references every group in order; the next iteration repeats
    with each sweep's base advanced by its ``step``.  The result is the
    run-length-compressed concatenation — bit-identical to recording the
    same loops one iteration at a time.
    """
    if outer < 1:
        raise ValueError(f"outer iteration count must be positive, got {outer}")
    if not groups or any(not group for group in groups):
        raise ValueError("grid groups must be non-empty")
    base_parts: list[np.ndarray] = []
    step_parts: list[np.ndarray] = []
    for group in groups:
        count = group[0].segment.count
        for sweep in group:
            if sweep.segment.count != count:
                raise ValueError(
                    "interleaved sweeps must have equal counts; got "
                    f"{[s.segment.count for s in group]}"
                )
            sweep.validate(line_bits)
        columns = [
            sweep.segment.base
            + sweep.segment.stride * np.arange(count, dtype=np.int64)
            for sweep in group
        ]
        steps = np.array([sweep.step for sweep in group], dtype=np.int64)
        # Row layout: element 0 of every sweep, element 1 of every sweep, …
        base_parts.append(np.stack(columns, axis=1).reshape(-1))
        step_parts.append(np.tile(steps, count))
    row_base = np.concatenate(base_parts)
    row_step = np.concatenate(step_parts)
    width = len(row_base)

    rows_per_chunk = max(1, _CHUNK_ELEMENTS // width)
    lines: list[int] = []
    counts: list[int] = []
    for start in range(0, outer, rows_per_chunk):
        iters = np.arange(
            start, min(start + rows_per_chunk, outer), dtype=np.int64
        )
        addresses = row_base[None, :] + iters[:, None] * row_step[None, :]
        chunk_lines, chunk_counts = _compress(addresses.reshape(-1) >> line_bits)
        if lines and chunk_lines and lines[-1] == chunk_lines[0]:
            counts[-1] += chunk_counts[0]
            chunk_lines = chunk_lines[1:]
            chunk_counts = chunk_counts[1:]
        lines.extend(chunk_lines)
        counts.extend(chunk_counts)
    return lines, counts
