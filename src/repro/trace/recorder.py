"""The trace recorder: segments in, cache accesses out.

A :class:`TraceRecorder` sits between a traced program and a
:class:`~repro.cache.hierarchy.CacheHierarchy`.  Programs describe their
references as :class:`~repro.mem.arrays.RefSegment` objects (optionally
interleaved, to model loops that alternate between arrays element by
element); the recorder converts them to run-length-compressed L1-line
streams with numpy and feeds the hierarchy in batches of at least
:data:`COALESCE_ENTRIES` entries, so arbitrarily long traces cost
constant memory and the kernel's per-batch set-up is paid once per few
thousand entries rather than once per record.

Din export, the SMP ledger and capture's footprints observe the same
records through the recorder's ``observers`` list.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.cache.hierarchy import CacheHierarchy, check_writes
from repro.mem.arrays import RefSegment

#: Run-length entries the recorder buffers before handing them to the
#: hierarchy as one ``access_data`` batch.  Merging adjacent batches
#: keeps every statistic (the kernel sees the same reference sequence),
#: so this only trades per-batch set-up against buffer memory: 4 Ki
#: entries already cut a threaded run's kernel calls by three orders of
#: magnitude, while 64 Ki raised the null-thread benchmark's peak RSS.
COALESCE_ENTRIES = 1 << 12


def validate_segment(segment: RefSegment, line_bits: int) -> None:
    """Reject segments whose elements could straddle an L1 line.

    An element fits entirely inside one line exactly when three
    conditions hold: the element size divides the line size, the base
    address is element-aligned, and every stride step lands on an
    element-aligned address (stride a multiple of the element size).
    Violating any one of them produces at least one element whose bytes
    span two lines — which the single-line-per-element conversion below
    would silently under-charge — so all three are enforced here.  E.g.
    ``element_size=12`` at base 24 with 32-byte lines puts bytes 24..35
    across the 0/32 boundary.
    """
    line_size = 1 << line_bits
    if segment.element_size > line_size:
        raise ValueError(
            f"element size {segment.element_size} exceeds line size {line_size}"
        )
    if line_size % segment.element_size:
        raise ValueError(
            f"element size {segment.element_size} does not divide line size "
            f"{line_size}: elements may straddle lines"
        )
    if segment.base % segment.element_size:
        raise ValueError(
            f"segment base 0x{segment.base:x} not aligned to element size "
            f"{segment.element_size}"
        )
    if segment.stride % segment.element_size:
        raise ValueError(
            f"segment stride {segment.stride} not a multiple of element size "
            f"{segment.element_size}: elements may straddle lines"
        )


def segment_to_lines(
    segment: RefSegment, line_bits: int
) -> tuple[list[int], list[int]]:
    """Convert one segment to a run-length-compressed line stream.

    Returns ``(lines, counts)`` where ``lines`` has no two consecutive
    equal entries and ``counts[i]`` is the number of element references
    entry ``i`` stands for.  Elements must not straddle lines — the
    element size must divide the line size, and the base and stride must
    be element-aligned (which holds for all the paper's double-precision
    data); this is validated (see :func:`validate_segment`).
    """
    validate_segment(segment, line_bits)
    if segment.stride == 0 or segment.count == 1:
        return [segment.base >> line_bits], [segment.count]
    if segment.count <= 16:
        # Tiny segments (thread records, single stencil points) are hot in
        # the thread package; a plain loop beats numpy's call overhead.
        lines: list[int] = []
        counts: list[int] = []
        address = segment.base
        for _ in range(segment.count):
            line = address >> line_bits
            if lines and lines[-1] == line:
                counts[-1] += 1
            else:
                lines.append(line)
                counts.append(1)
            address += segment.stride
        return lines, counts
    addresses = segment.base + segment.stride * np.arange(
        segment.count, dtype=np.int64
    )
    return _compress(addresses >> line_bits)


def _compress(lines: np.ndarray) -> tuple[list[int], list[int]]:
    """Run-length compress a line-number array."""
    if len(lines) == 0:
        return [], []
    change = np.flatnonzero(np.diff(lines)) + 1
    starts = np.concatenate(([0], change))
    ends = np.concatenate((change, [len(lines)]))
    return lines[starts].tolist(), (ends - starts).tolist()


def interleave_segments(
    segments: list[RefSegment], line_bits: int
) -> tuple[list[int], list[int]]:
    """Line stream for segments walked in lock-step, element by element.

    Models a loop body that references one element of each segment per
    iteration (e.g. ``C[i,j] += A[i,k] * B[k,j]`` touches three arrays per
    iteration).  All segments must have equal ``count`` and satisfy the
    same no-straddle alignment preconditions as :func:`segment_to_lines`
    (see :func:`validate_segment`).
    """
    if not segments:
        return [], []
    count = segments[0].count
    for segment in segments:
        if segment.count != count:
            raise ValueError(
                "interleaved segments must have equal counts; got "
                f"{[s.count for s in segments]}"
            )
        validate_segment(segment, line_bits)
    columns = [
        segment.base
        + segment.stride * np.arange(segment.count, dtype=np.int64)
        for segment in segments
    ]
    addresses = np.stack(columns, axis=1).reshape(-1)
    return _compress(addresses >> line_bits)


def first_store(sizes: Sequence[int], writes: int) -> int:
    """Index of the first store among operands of ``sizes`` references.

    The record API's store convention: a loop body loads before it
    stores, so the stores are the fewest trailing operands whose counts
    cover ``writes`` — for ``record_interleaved`` the trailing
    ``ceil(writes / count)`` segments.
    """
    index = len(sizes)
    remaining = writes
    while remaining > 0 and index > 0:
        index -= 1
        remaining -= sizes[index]
    return index


def grid_first_store(groups, outer: int, writes: int) -> int:
    """:func:`first_store` among a grid's sweeps, flattened group by
    group, for one outer iteration's ``ceil(writes / outer)`` stores."""
    sizes = [sweep.segment.count for group in groups for sweep in group]
    return first_store(sizes, -(-writes // outer))


class RecordObserver:
    """Sees every record a :class:`TraceRecorder` takes, before line
    conversion, in one normalised form (the defaults ignore it).

    ``record``, ``record_interleaved`` and ``record_grid`` arrive at
    :meth:`on_grid` as ``(groups, outer, writes)`` (see
    :func:`~repro.trace.blocks.grid_to_lines`); a plain record is one
    group of one sweep with ``outer=1``.  ``record_lines`` arrives at
    :meth:`on_lines` with counts filled in and the L1D line size.
    """

    def on_grid(self, groups, outer: int, writes: int) -> None:
        pass

    def on_lines(
        self, lines: list[int], counts: list[int], writes: int, line_bits: int
    ) -> None:
        pass

    def on_instructions(self, count: int, thread: bool) -> None:
        pass


class TraceRecorder:
    """Streams a program's references and instruction counts to a hierarchy.

    Each ``record*`` call is checked on its own and appended to a buffer;
    the buffer goes to the hierarchy as one ``access_data`` batch once it
    holds :data:`COALESCE_ENTRIES` entries, and whenever something is
    about to read the caches: the recorder registers :meth:`drain` as the
    hierarchy's ``drain_hook``, which ``snapshot``, ``flush`` and
    ``reset`` call first.  A record that alone reaches the threshold goes
    straight through, uncopied, after the buffer ahead of it.

    Every :class:`RecordObserver` in :attr:`observers` sees each record
    first.  Built with ``hierarchy=None`` (and ``line_bits``) the
    recorder converts nothing and only feeds its observers — capture
    execution (:mod:`repro.analysis.capture`).
    """

    def __init__(self, hierarchy: CacheHierarchy | None, line_bits: int = 0) -> None:
        self.hierarchy = hierarchy
        if hierarchy is not None:
            line_bits = hierarchy.l1d.config.line_bits
            hierarchy.drain_hook = self.drain
        self._line_bits = line_bits
        self.observers: list[RecordObserver] = []
        self._app_instructions = 0
        self._thread_instructions = 0
        self._lines: list[int] = []
        self._counts: list[int] = []
        self._writes = 0

    def retarget(self, hierarchy: CacheHierarchy) -> None:
        """Drain into the current hierarchy, then feed ``hierarchy`` (of
        the same L1D geometry) — an SMP run's processor switch."""
        self.drain()
        if self.hierarchy is not None:
            self.hierarchy.drain_hook = None
        self.hierarchy = hierarchy
        hierarchy.drain_hook = self.drain

    # ------------------------------------------------------------------
    # Memory references
    # ------------------------------------------------------------------
    def record(self, segment: RefSegment, writes: int = 0) -> None:
        """Record one segment of references (``writes`` of them stores)."""
        if self.observers:
            self._observe_segments((segment,), writes)
        if self.hierarchy is not None:
            lines, counts = segment_to_lines(segment, self._line_bits)
            self._append(lines, counts, writes)

    def record_interleaved(
        self, segments: list[RefSegment], writes: int = 0
    ) -> None:
        """Record several segments walked in lock-step (see
        :func:`interleave_segments`)."""
        if self.observers:
            self._observe_segments(segments, writes)
        if self.hierarchy is not None:
            lines, counts = interleave_segments(segments, self._line_bits)
            self._append(lines, counts, writes)

    def record_grid(self, groups, outer: int, writes: int = 0) -> None:
        """Record ``outer`` iterations of a grid of
        :class:`~repro.trace.blocks.SegmentSweep` groups as one record —
        the vectorized form of an outer loop around
        :meth:`record`/:meth:`record_interleaved` calls (see
        :func:`repro.trace.blocks.grid_to_lines`)."""
        from repro.trace.blocks import grid_to_lines

        for observer in self.observers:
            observer.on_grid(groups, outer, writes)
        if self.hierarchy is not None:
            lines, counts = grid_to_lines(groups, outer, self._line_bits)
            self._append(lines, counts, writes)

    def record_lines(
        self, lines: list[int], counts: list[int] | None = None, writes: int = 0
    ) -> None:
        """Record a pre-computed L1-line stream (escape hatch for programs
        with irregular reference patterns, e.g. tree traversals)."""
        if self.observers:
            tally = [1] * len(lines) if counts is None else counts
            for observer in self.observers:
                observer.on_lines(lines, tally, writes, self._line_bits)
        if self.hierarchy is not None:
            self._append(lines, counts, writes)

    def _observe_segments(self, segments, writes: int) -> None:
        """Show observers a plain or interleaved record as a one-group,
        one-iteration grid."""
        from repro.trace.blocks import SegmentSweep

        groups = (tuple(SegmentSweep(segment) for segment in segments),)
        for observer in self.observers:
            observer.on_grid(groups, 1, writes)

    def _append(
        self, lines: list[int], counts: list[int] | None, writes: int
    ) -> None:
        """Feed one record as a batch of its own if it alone reaches the
        threshold (``access_data`` then checks its ``writes``); otherwise
        check its ``writes`` against its own references and buffer it."""
        if len(lines) >= COALESCE_ENTRIES:
            self.drain()
            self._feed(lines, counts, writes)
            return
        check_writes(writes, len(lines) if counts is None else sum(counts))
        self._lines += lines
        self._counts += [1] * len(lines) if counts is None else counts
        self._writes += writes
        if len(self._lines) >= COALESCE_ENTRIES:
            self.drain()

    def drain(self) -> None:
        """Hand the buffered references to the hierarchy as one batch."""
        lines = self._lines
        if not lines:
            return
        counts, writes = self._counts, self._writes
        self._lines, self._counts, self._writes = [], [], 0
        self._feed(lines, counts, writes)

    def _feed(self, lines: list[int], counts: list[int] | None, writes: int) -> None:
        hierarchy = self.hierarchy
        assert hierarchy is not None, "an observers-only recorder converts nothing"
        hierarchy.access_data(lines, counts, writes=writes)

    def line_of(self, address: int) -> int:
        """The L1D line number containing ``address``."""
        return address >> self._line_bits

    # ------------------------------------------------------------------
    # Instruction counting
    # ------------------------------------------------------------------
    def count_instructions(self, count: int) -> None:
        """Record ``count`` application instructions (counted, not traced)."""
        self._count(count, False)
        self._app_instructions += count

    def count_thread_instructions(self, count: int) -> None:
        """Record instructions executed by the thread package itself.

        Kept separate from application instructions because the timing
        model charges threading through the measured Table 1 fork/run
        costs; thread instructions appear in the I-fetch totals of the
        cache tables but are excluded from modeled time (see DESIGN.md).
        """
        self._count(count, True)
        self._thread_instructions += count

    def _count(self, count: int, thread: bool) -> None:
        if count < 0:
            raise ValueError(f"instruction count must be non-negative: {count}")
        if self.observers:
            for observer in self.observers:
                observer.on_instructions(count, thread)
        if self.hierarchy is not None:
            self.hierarchy.fetch_instructions(count)

    @property
    def app_instructions(self) -> int:
        return self._app_instructions

    @property
    def thread_instructions(self) -> int:
        return self._thread_instructions

    @property
    def total_instructions(self) -> int:
        return self._app_instructions + self._thread_instructions
