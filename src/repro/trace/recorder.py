"""The trace recorder: segments in, cache accesses out.

A :class:`TraceRecorder` sits between a traced program and a
:class:`~repro.cache.hierarchy.CacheHierarchy`.  Programs describe their
references as :class:`~repro.mem.arrays.RefSegment` objects (optionally
interleaved, to model loops that alternate between arrays element by
element); the recorder turns them into run-length-compressed L1-line
streams and feeds the hierarchy in batches of at least
:data:`COALESCE_ENTRIES` entries, so arbitrarily long traces cost
constant memory and the kernel's per-batch set-up is paid once per few
thousand entries rather than once per record.

The stream is built array-at-a-time.  ``record`` and
``record_interleaved`` check their arguments at the call and queue a
descriptor: the bases and strides of the record's segments, its
iteration count and its stores.  One numpy pass
(:func:`descriptor_lines`) expands, shifts and compresses every queued
record at once, whenever a batch could first be cut, ahead of a
``record_grid`` or ``record_lines`` call, and on every drain.  The
batches stay int64 arrays up to the hierarchy, which converts each once
for the L1D kernel's loop.  :func:`segment_to_lines` and
:func:`interleave_segments` are the per-record spec that pass is held
to.

Din export, the SMP ledger and capture's footprints observe the same
records through the recorder's ``observers`` list.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.cache.classify import run_heads
from repro.cache.hierarchy import CacheHierarchy, check_counts, check_writes
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


def check_address(address: int) -> None:
    """Reject a negative address, as :class:`~repro.mem.allocator.AddressSpace`
    rejects a negative base: line numbers are addresses shifted right,
    and the stored-trace replay reserves line -1 for an empty set."""
    if address < 0:
        raise ValueError(f"addresses must be non-negative, got {address}")


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
        # The SMP ledger converts each store operand with this: a quick
        # extension_smp run makes 364,364 calls, 240k of them on two or
        # four elements, which this loop takes in 0.7 s and numpy in 4.3.
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
    lines, counts = runs(addresses >> line_bits)
    return lines.tolist(), counts.tolist()


def _lengths(starts: np.ndarray, total: int) -> np.ndarray:
    """Lengths of the runs that begin at ``starts`` in a sequence of
    ``total`` items."""
    lengths = np.empty_like(starts)
    np.subtract(starts[1:], starts[:-1], out=lengths[:-1])
    lengths[-1:] = total - starts[-1:]
    return lengths


def runs(lines: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Run-length compress a line-number array into int64 ``(lines,
    counts)`` arrays."""
    starts = run_heads(lines).nonzero()[0]
    return lines[starts], _lengths(starts, len(lines))


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
    _check_interleave(segments, line_bits)
    columns = [
        segment.base
        + segment.stride * np.arange(segment.count, dtype=np.int64)
        for segment in segments
    ]
    addresses = np.stack(columns, axis=1).reshape(-1)
    lines, counts = runs(addresses >> line_bits)
    return lines.tolist(), counts.tolist()


def _check_interleave(segments: Sequence[RefSegment], line_bits: int) -> None:
    """The checks :func:`interleave_segments` and ``record_interleaved``
    make: equal counts, and each segment valid."""
    count = segments[0].count
    for segment in segments:
        if segment.count != count:
            raise ValueError(
                "interleaved segments must have equal counts; got "
                f"{[s.count for s in segments]}"
            )
        validate_segment(segment, line_bits)


def _progressions(
    first: np.ndarray, step: np.ndarray, count: np.ndarray, starts: np.ndarray
) -> np.ndarray:
    """``first[k] + i * step[k]`` for ``i < count[k]``, concatenated over
    ``k``; ``starts`` are where each ``k`` begins (every ``count`` at
    least 1).  One repeat and one cumsum."""
    delta = step.repeat(count)
    delta[starts[1:]] = first[1:] - (first[:-1] + (count[:-1] - 1) * step[:-1])
    delta[0] = first[0]
    return delta.cumsum()


def descriptor_lines(
    bases: np.ndarray,
    strides: np.ndarray,
    widths: np.ndarray,
    iterations: np.ndarray,
    line_bits: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The line streams of queued ``record``/``record_interleaved``
    calls, converted in one numpy pass.

    Record ``r`` walks ``widths[r]`` segments (``bases``/``strides``,
    int64 arrays flattened over the records) in lock-step for
    ``iterations[r]`` elements each.  Returns int64 ``(lines, counts,
    entries)``: the records' run-length-compressed streams back to
    back — each record compressed on its own, exactly as
    :func:`segment_to_lines` and :func:`interleave_segments` compress
    it — and the number of entries each record contributes.
    """
    # Column j of a width-w record holds its elements j, j + w, …:
    # expand the columns, then scatter them into element order.
    lengths = iterations.repeat(widths)
    sizes = widths * iterations
    record_starts = sizes.cumsum() - sizes
    column_starts = lengths.cumsum() - lengths
    columns = _progressions(bases, strides, lengths, column_starts)
    segment_starts = widths.cumsum() - widths
    positions = _progressions(
        record_starts.repeat(widths)
        + (np.arange(len(bases)) - segment_starts.repeat(widths)),
        widths.repeat(widths),
        lengths,
        column_starts,
    )
    addresses = np.empty_like(columns)
    addresses[positions] = columns
    lines = addresses >> line_bits
    head = run_heads(lines)
    head[record_starts] = True
    starts = head.nonzero()[0]
    entries = _lengths(starts.searchsorted(record_starts), len(starts))
    return lines[starts], _lengths(starts, len(lines)), entries


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

    Each ``record*`` call is checked on its own, at the call.
    ``record`` and ``record_interleaved`` queue a descriptor; once the
    buffered entries plus the queued records' elements reach
    :data:`COALESCE_ENTRIES` — a record has no more entries than
    elements, so no batch cut can come sooner — the queue is converted
    in one pass (:func:`descriptor_lines`).  ``record_grid`` and
    ``record_lines`` convert the queue ahead of them and then their own
    int64 arrays.  Converted records are buffered and cut into batches
    record by record: the buffer goes to the hierarchy as one
    ``access_data`` batch once it holds :data:`COALESCE_ENTRIES`
    entries, and a record that alone reaches the threshold goes through
    alone, behind the buffer.  The same happens whenever something is
    about to read the caches: the recorder registers :meth:`drain` as
    the hierarchy's ``drain_hook``, which ``snapshot``, ``flush`` and
    ``reset`` call first.

    A guarded thread package may stop a proc at any line (its budget),
    recorder frames included.  Each change to the queue or the buffer
    is one statement, so such a stop leaves neither torn: at worst the
    stopped proc's last records never reach the caches.

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
        # The queue: four ints per queued segment (base, stride, the
        # record's iterations, and its stores on the record's first
        # segment or -1 on the others), and at least as many elements
        # as they describe.  Flat ints, not a tuple per record: the
        # queue keeps no objects for the cyclic collector to chase (a
        # tuple per record tripled a null-thread pass's collections).
        self._queue: list[int] = []
        self._queued = 0
        # The buffer: converted entries not yet fed, as array pieces,
        # and their entry and store totals.
        self._lines: list[np.ndarray] = []
        self._counts: list[np.ndarray] = []
        self._buffered = 0
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
            validate_segment(segment, self._line_bits)
            check_address(min(segment.base, segment.last_address))
            check_writes(writes, segment.count)
            self._queue_descriptor(
                (segment.base, segment.stride, segment.count, writes),
                segment.count,
            )

    def record_interleaved(
        self, segments: list[RefSegment], writes: int = 0
    ) -> None:
        """Record several segments walked in lock-step (see
        :func:`interleave_segments`)."""
        if self.observers:
            self._observe_segments(segments, writes)
        if self.hierarchy is None:
            return
        if not segments:
            check_writes(writes, 0)
            return
        _check_interleave(segments, self._line_bits)
        for segment in segments:
            check_address(min(segment.base, segment.last_address))
        count = segments[0].count
        check_writes(writes, count * len(segments))
        descriptor: list[int] = []
        for segment in segments:
            descriptor += (segment.base, segment.stride, count, -1)
        descriptor[3] = writes
        self._queue_descriptor(descriptor, count * len(segments))

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
            self._take_arrays(lines, counts, writes)

    def record_lines(
        self, lines: list[int], counts: list[int] | None = None, writes: int = 0
    ) -> None:
        """Record a pre-computed L1-line stream (escape hatch for programs
        with irregular reference patterns, e.g. tree traversals).  Each
        count must be at least 1, one per line."""
        if self.observers:
            tally = [1] * len(lines) if counts is None else counts
            for observer in self.observers:
                observer.on_lines(lines, tally, writes, self._line_bits)
        if self.hierarchy is not None:
            lines = np.asarray(lines, dtype=np.int64)
            if counts is None:
                counts = np.ones(len(lines), dtype=np.int64)
            else:
                counts = np.asarray(counts, dtype=np.int64)
                check_counts(lines, counts)
            self._take_arrays(lines, counts, writes)

    def _observe_segments(self, segments, writes: int) -> None:
        """Show observers a plain or interleaved record as a one-group,
        one-iteration grid."""
        from repro.trace.blocks import SegmentSweep

        groups = (tuple(SegmentSweep(segment) for segment in segments),)
        for observer in self.observers:
            observer.on_grid(groups, 1, writes)

    def _queue_descriptor(self, descriptor: Sequence[int], elements: int) -> None:
        """Queue a checked record's descriptor; convert the queue once a
        batch could be cut."""
        # The element total goes up first: a stop between these lines
        # makes the next conversion come early, which cuts the same
        # batches, never late.
        self._queued += elements
        self._queue += descriptor
        if self._buffered + self._queued >= COALESCE_ENTRIES:
            self._convert()

    def _take_arrays(self, lines: np.ndarray, counts: np.ndarray, writes: int) -> None:
        """Check a converted record and buffer it behind the queue."""
        if len(lines):
            check_address(int(lines.min()) << self._line_bits)
        check_writes(writes, int(counts.sum()))
        if self._queue:
            self._convert()
        self._take(lines, counts, (len(lines),), (writes,))

    def _convert(self) -> None:
        """Convert the queued descriptors in one pass and buffer them."""
        bases, strides, iterations, writes = np.array(
            self._queue, dtype=np.int64
        ).reshape(-1, 4).T
        firsts = (writes >= 0).nonzero()[0]
        widths = _lengths(firsts, len(writes))
        lines, counts, entries = descriptor_lines(
            bases, strides, widths, iterations[firsts], self._line_bits
        )
        self._queue, self._queued = [], 0
        self._take(lines, counts, entries.tolist(), writes[firsts].tolist())

    def _take(
        self,
        lines: np.ndarray,
        counts: np.ndarray,
        sizes: Sequence[int],
        writes: Sequence[int],
    ) -> None:
        """Buffer converted records (``sizes`` entries and ``writes``
        stores each, back to back in ``lines``/``counts``) in order,
        cutting batches where the per-record rule does."""
        threshold = COALESCE_ENTRIES
        buffered, stores = self._buffered, self._writes
        start = end = 0
        for size, record_writes in zip(sizes, writes):
            if size >= threshold:
                self._hold(lines[start:end], counts[start:end], buffered, stores)
                self.drain()
                start, end = end, end + size
                self._feed(lines[start:end], counts[start:end], record_writes)
                start, buffered, stores = end, 0, 0
                continue
            end += size
            buffered += size
            stores += record_writes
            if buffered >= threshold:
                self._hold(lines[start:end], counts[start:end], buffered, stores)
                self.drain()
                start, buffered, stores = end, 0, 0
        self._hold(lines[start:end], counts[start:end], buffered, stores)

    def _hold(
        self, lines: np.ndarray, counts: np.ndarray, buffered: int, writes: int
    ) -> None:
        """Add a piece to the buffer, which then holds ``buffered``
        entries and ``writes`` stores (an empty piece adds neither)."""
        if len(lines):
            self._lines, self._counts, self._buffered, self._writes = (
                [*self._lines, lines], [*self._counts, counts], buffered, writes
            )

    def drain(self) -> None:
        """Convert what is queued and hand the buffered references to
        the hierarchy as one batch."""
        if self._queue:
            self._convert()
        if not self._lines:
            return
        lines, counts, writes = self._lines, self._counts, self._writes
        self._lines, self._counts, self._buffered, self._writes = [], [], 0, 0
        if len(lines) == 1:
            self._feed(lines[0], counts[0], writes)
        else:
            self._feed(np.concatenate(lines), np.concatenate(counts), writes)

    def _feed(self, lines: np.ndarray, counts: np.ndarray, writes: int) -> None:
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
