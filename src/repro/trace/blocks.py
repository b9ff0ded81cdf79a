"""Vectorized block generation: whole loop nests as one array op.

The per-iteration recording style (``record`` / ``record_interleaved``
once per inner-loop trip) spends most of a simulation in Python call
overhead — tens of thousands of record calls for a single matmul.  A :class:`SegmentSweep` lifts the *outer* loop into the
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

from collections.abc import Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from repro.mem.arrays import RefSegment
from repro.trace.recorder import runs, validate_segment

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


def grid_addresses(
    groups: Sequence[Sequence[SegmentSweep]], outer: int
) -> Iterator[np.ndarray]:
    """The addresses ``outer`` iterations of a grid reference, in order,
    as int64 chunks of whole iterations (about ``_CHUNK_ELEMENTS`` each).

    Each entry of ``groups`` is a list of sweeps walked in lock-step,
    element by element (the :func:`~repro.trace.recorder.interleave_segments`
    model); a singleton group is a plain sequential segment.  One outer
    iteration references every group in order; the next iteration repeats
    with each sweep's base advanced by its ``step``.
    """
    if outer < 1:
        raise ValueError(f"outer iteration count must be positive, got {outer}")
    if not groups or any(not group for group in groups):
        raise ValueError("grid groups must be non-empty")
    base_parts: list[np.ndarray] = []
    step_parts: list[np.ndarray] = []
    for group in groups:
        count = group[0].segment.count
        if any(sweep.segment.count != count for sweep in group):
            raise ValueError(
                "interleaved sweeps must have equal counts; got "
                f"{[s.segment.count for s in group]}"
            )
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
    for start in range(0, outer, rows_per_chunk):
        iters = np.arange(
            start, min(start + rows_per_chunk, outer), dtype=np.int64
        )
        addresses = row_base[None, :] + iters[:, None] * row_step[None, :]
        yield addresses.reshape(-1)


def grid_to_lines(
    groups: Sequence[Sequence[SegmentSweep]],
    outer: int,
    line_bits: int,
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`grid_addresses` as a run-length-compressed line stream of
    int64 ``(lines, counts)`` arrays — bit-identical to recording the
    same loops one iteration at a time."""
    for group in groups:
        for sweep in group:
            sweep.validate(line_bits)
    line_parts: list[np.ndarray] = []
    count_parts: list[np.ndarray] = []
    for addresses in grid_addresses(groups, outer):
        lines, counts = runs(addresses >> line_bits)
        if line_parts and line_parts[-1][-1] == lines[0]:
            count_parts[-1][-1] += counts[0]
            lines, counts = lines[1:], counts[1:]
        if len(lines):
            line_parts.append(lines)
            count_parts.append(counts)
    if len(line_parts) == 1:
        return line_parts[0], count_parts[0]
    return np.concatenate(line_parts), np.concatenate(count_parts)
