"""Capture execution: run a program's scheduling, skip the cache sim.

``run_capture`` executes a ``program(ctx)`` callable against the *real*
scheduler geometry (:class:`~repro.core.scheduler.LocalityScheduler`,
:class:`~repro.core.bins.BinTable`, the real address-space allocator)
but with no cache hierarchy: the context's recorder only feeds a
:class:`FootprintObserver`.  Every ``th_fork`` is logged with its hints,
bin, and call site, and every memory reference a thread proc records is
attributed to that thread as a strided segment.  The analyzers in
:mod:`repro.analysis.locality` and :mod:`repro.analysis.races` then
reason about the captured structure without a single simulated cache
access.  Capture packages allocate their own regions exactly as
simulated ones do, so every array has its simulated address, but
record none of their own traffic.

Thread procs run in fork order — the program's own sequential order,
which is a legal schedule for both independent packages (any order is)
and dependent packages ('after' edges only point backwards).
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.core.package import ThreadPackage
from repro.core.stats import SchedulingStats, next_run_seq
from repro.machine.spec import MachineSpec
from repro.mem.allocator import AddressSpace
from repro.sim.context import SimContext
from repro.trace.recorder import (
    RecordObserver,
    TraceRecorder,
    first_store,
    grid_first_store,
)

_ANALYSIS_DIR = os.path.dirname(os.path.abspath(__file__))
_CORE_DIR = os.path.join(
    os.path.dirname(_ANALYSIS_DIR), "core"
)


def _call_site() -> tuple[str | None, int | None]:
    """File and line of the nearest frame outside the capture machinery."""
    frame = sys._getframe(2)
    while frame is not None:
        filename = frame.f_code.co_filename
        if not (
            filename.startswith(_ANALYSIS_DIR)
            or filename.startswith(_CORE_DIR)
        ):
            return filename, frame.f_lineno
        frame = frame.f_back
    return None, None


@dataclass(frozen=True)
class FootSeg:
    """One recorded reference segment, tagged read or write.

    Line-granular records (``record_lines``) are normalised to segments
    with ``stride == 0`` and ``element_size`` equal to the line size, so
    every analyzer sees one shape.
    """

    base: int
    stride: int
    count: int
    element_size: int
    written: bool

    @property
    def lo(self) -> int:
        """Lowest byte address touched."""
        if self.stride >= 0:
            return self.base
        return self.base + self.stride * (self.count - 1)

    @property
    def hi(self) -> int:
        """One past the highest byte address touched."""
        if self.stride >= 0:
            return self.base + self.stride * (self.count - 1) + self.element_size
        return self.base + self.element_size

    def lines(self, line_bits: int) -> range | set[int]:
        """The cache lines this segment touches.

        Exact for dense walks (``|stride|`` at most one line) and for
        single elements; enumerated for sparse strides.
        """
        line_size = 1 << line_bits
        if self.stride == 0 or self.count == 1:
            return range(self.lo >> line_bits, ((self.hi - 1) >> line_bits) + 1)
        if abs(self.stride) <= line_size:
            # Dense: every line in the span contains touched bytes.
            return range(self.lo >> line_bits, ((self.hi - 1) >> line_bits) + 1)
        touched: set[int] = set()
        address = self.base
        for _ in range(self.count):
            touched.add(address >> line_bits)
            touched.add((address + self.element_size - 1) >> line_bits)
            address += self.stride
        return touched


@dataclass(frozen=True)
class CaptureProblem:
    """A structured problem observed while replaying forks (bad hint
    vectors, bad 'after' edges) — converted to a diagnostic later.

    ``run`` and ``ordinal`` name the fork the problem was observed at
    (the batch being accumulated and the thread's position within it),
    and ``hints`` preserves the *original* hint vector when capture had
    to replace it to continue (RL006 re-forks unhinted) — the optimizer
    needs the defective vector the program actually passed, which the
    fork record no longer shows.
    """

    code: str
    message: str
    file: str | None
    line: int | None
    run: int | None = None
    ordinal: int | None = None
    hints: tuple[int, int, int] | None = None


@dataclass
class ForkRecord:
    """Everything captured about one ``th_fork``."""

    ordinal: int
    func: Callable
    hints: tuple[int, int, int]
    bin_key: Any
    bin_ref: int
    file: str | None
    line: int | None
    arg1: Any = None
    arg2: Any = None
    after: tuple[int, ...] = ()
    footprint: list[FootSeg] = field(default_factory=list)

    @property
    def dims(self) -> int:
        if self.hints[2]:
            return 3
        if self.hints[1]:
            return 2
        if self.hints[0]:
            return 1
        return 0


@dataclass
class CapturedRun:
    """One ``th_run``'s worth of captured threads."""

    index: int
    records: list[ForkRecord]
    bin_counts: list[int]
    max_chain: int


@dataclass
class PackageCapture:
    """Everything captured from one thread package's lifetime."""

    kind: str  # "independent" | "dependent" | "guarded"
    block_size: int
    hash_size: int
    fold_symmetric: bool
    runs: list[CapturedRun] = field(default_factory=list)
    problems: list[CaptureProblem] = field(default_factory=list)

    @property
    def all_records(self) -> list[ForkRecord]:
        return [record for run in self.runs for record in run.records]


@dataclass
class CaptureResult:
    """What :func:`run_capture` hands to the analyzers."""

    machine: MachineSpec
    space: AddressSpace
    packages: list[PackageCapture]
    payload: Any
    line_bits: int


class FootprintObserver(RecordObserver):
    """Keeps every record as :class:`FootSeg` footprints, attributed to
    the thread running when it was recorded.

    Store operands are marked written by the record API's convention
    (:func:`~repro.trace.recorder.first_store`).  A grid yields one
    footprint per sweep per outer iteration, as recording its iterations
    one by one would.
    """

    def __init__(self) -> None:
        #: Segments recorded outside any captured thread (serial phases).
        self.program_segments: list[FootSeg] = []
        self._sink: list[FootSeg] = self.program_segments

    def attribute_to(self, sink: list[FootSeg]) -> list[FootSeg]:
        """Redirect recording into ``sink``; returns the previous sink."""
        previous = self._sink
        self._sink = sink
        return previous

    def on_grid(self, groups, outer: int, writes: int) -> None:
        sweeps = [sweep for group in groups for sweep in group]
        stores_from = grid_first_store(groups, outer, writes)
        self._sink.extend(
            FootSeg(
                sweep.segment.base + sweep.step * iteration,
                sweep.segment.stride,
                sweep.segment.count,
                sweep.segment.element_size,
                written=position >= stores_from,
            )
            for iteration in range(outer)
            for position, sweep in enumerate(sweeps)
        )

    def on_lines(self, lines, counts, writes: int, line_bits: int) -> None:
        stores_from = first_store(counts, writes)
        self._sink.extend(
            FootSeg(
                line << line_bits,
                0,
                count,
                1 << line_bits,
                written=position >= stores_from,
            )
            for position, (line, count) in enumerate(zip(lines, counts))
        )


class CaptureThreadPackage(ThreadPackage):
    """A :class:`ThreadPackage` that allocates like a simulated one but
    records none of its own traffic, logs forks, and attributes proc
    footprints instead of dispatching bin by bin.

    ``th_run`` executes pending threads in *fork order* — the program's
    own sequential order, always a legal schedule — so numerics behave
    exactly as the serial program while the captured structure records
    what the locality scheduler *would* have done with them.
    """

    def __init__(
        self,
        *args: Any,
        footprints: FootprintObserver,
        kind: str = "independent",
        **kwargs: Any,
    ) -> None:
        super().__init__(*args, **kwargs)
        self._footprints = footprints
        self._pending_records: list[ForkRecord] = []
        #: Mirrors DependentThreadPackage's counters so programs that
        #: report them keep working under capture; fork order needs one
        #: activation per bin (the time-skewed-tiling ideal), which is
        #: what the counter *means*, not what a real dispatch measured.
        self.last_activations = 0
        self.last_sweeps = 0
        self.capture = PackageCapture(
            kind=kind,
            block_size=self.scheduler.block_size,
            hash_size=self.scheduler.hash_size,
            fold_symmetric=self.fold_symmetric,
        )

    # -- forking --------------------------------------------------------
    def th_fork(
        self,
        func: Callable[[Any, Any], Any],
        arg1: Any = None,
        arg2: Any = None,
        hint1: int = 0,
        hint2: int = 0,
        hint3: int = 0,
    ) -> None:
        self._capture_fork(func, arg1, arg2, hint1, hint2, hint3)

    def _trace_fork(self, *args: Any) -> None:
        """Record nothing: package traffic is not the program's footprint."""

    def _capture_fork(
        self,
        func: Callable[[Any, Any], Any],
        arg1: Any,
        arg2: Any,
        hint1: int,
        hint2: int,
        hint3: int,
        after: tuple[int, ...] = (),
    ) -> int:
        file, line = _call_site()
        hints = (hint1, hint2, hint3)
        try:
            bin_, _group, _index = self._fork_impl(
                func, arg1, arg2, hint1, hint2, hint3
            )
        except ValueError as exc:
            # Invalid hint vector (negative, or a gap): RL006.  Re-fork
            # unhinted so capture can continue past the first defect.
            self.capture.problems.append(
                CaptureProblem(
                    "RL006",
                    str(exc),
                    file,
                    line,
                    run=len(self.capture.runs),
                    ordinal=len(self._pending_records),
                    hints=hints,
                )
            )
            hints = (0, 0, 0)
            bin_, _group, _index = self._fork_impl(func, arg1, arg2, 0, 0, 0)
        record = ForkRecord(
            ordinal=len(self._pending_records),
            func=func,
            hints=hints,
            bin_key=bin_.key,
            bin_ref=id(bin_),
            file=file,
            line=line,
            arg1=arg1,
            arg2=arg2,
            after=after,
        )
        self._pending_records.append(record)
        return record.ordinal

    # -- running --------------------------------------------------------
    def th_run(self, keep: int = 0) -> SchedulingStats:
        records = self._pending_records
        counts = [b.thread_count for b in self.table.ready if b.thread_count]
        run = CapturedRun(
            index=len(self.capture.runs),
            records=list(records),
            bin_counts=counts,
            max_chain=self.table.max_chain_length,
        )
        self.capture.runs.append(run)
        footprints = self._footprints
        self._running = True
        try:
            for record in records:
                previous = footprints.attribute_to(record.footprint)
                try:
                    record.func(record.arg1, record.arg2)
                finally:
                    footprints.attribute_to(previous)
                self._total_dispatches += 1
        finally:
            self._running = False
        if not keep:
            self.table.clear_threads()
            self._pending_records = []
        self.last_activations = len(counts)
        self.last_sweeps = len(counts)
        stats = SchedulingStats.from_counts(counts, seq=next_run_seq())
        self.run_history.append(stats)
        return stats


class DependentCaptureThreadPackage(CaptureThreadPackage):
    """Capture variant of :class:`~repro.core.deps.DependentThreadPackage`.

    Invalid ``after`` references become RC002 problems (with the edge
    dropped) instead of raising, so one defect does not hide the rest of
    the program's structure.  Fork order remains a legal schedule: valid
    edges only ever point backwards.
    """

    def th_fork(  # type: ignore[override]
        self,
        func: Callable[[Any, Any], Any],
        arg1: Any = None,
        arg2: Any = None,
        hint1: int = 0,
        hint2: int = 0,
        hint3: int = 0,
        after: tuple[int, ...] | list[int] = (),
    ) -> int:
        thread_id = len(self._pending_records)
        valid: list[int] = []
        for predecessor in after:
            problem = self._check_edge(thread_id, predecessor)
            if problem is None:
                valid.append(predecessor)
            else:
                file, line = _call_site()
                self.capture.problems.append(
                    CaptureProblem(
                        "RC002",
                        problem,
                        file,
                        line,
                        run=len(self.capture.runs),
                        ordinal=thread_id,
                    )
                )
        return self._capture_fork(
            func, arg1, arg2, hint1, hint2, hint3, after=tuple(valid)
        )

    @staticmethod
    def _check_edge(thread_id: int, predecessor: Any) -> str | None:
        if not isinstance(predecessor, int) or isinstance(predecessor, bool):
            return (
                f"thread {thread_id} cannot depend on {predecessor!r}: "
                f"'after' takes thread ids"
            )
        if predecessor == thread_id:
            return f"thread {thread_id} cannot depend on itself"
        if not 0 <= predecessor < thread_id:
            return (
                f"thread {thread_id} cannot depend on {predecessor}: unknown "
                f"thread id (ids 0..{thread_id - 1} exist so far)"
            )
        return None


@dataclass(kw_only=True)
class CaptureContext(SimContext):
    """A :class:`~repro.sim.context.SimContext` whose recorder has no
    hierarchy and whose packages are the capture variants."""

    footprints: FootprintObserver

    def build_package(self, kind: str, **kwargs: Any) -> CaptureThreadPackage:
        if kind == "guarded":
            # Budgets and containment are runtime concerns with no
            # static meaning: accepted and ignored.
            for option in ("thread_budget", "max_address", "strict_hints"):
                kwargs.pop(option, None)
        factory = (
            DependentCaptureThreadPackage if kind == "dependent" else CaptureThreadPackage
        )
        return factory(footprints=self.footprints, kind=kind, **kwargs)


def run_capture(
    program: Callable[[CaptureContext], Any], machine: MachineSpec
) -> CaptureResult:
    """Execute ``program`` under capture and return what it did.

    The address space matches the simulator's layout (same base, same
    anti-conflict stagger, the same package regions allocated in the
    same order) so captured hints resolve to the same arrays, at the
    same addresses, a real run would use.
    """
    space = AddressSpace(stagger=3 * machine.l2.line_size)
    recorder = TraceRecorder(None, line_bits=machine.l1d.line_bits)
    footprints = FootprintObserver()
    recorder.observers.append(footprints)
    context = CaptureContext(
        machine=machine,
        hierarchy=None,
        recorder=recorder,
        space=space,
        footprints=footprints,
    )
    payload = program(context)
    # A program that forked but never ran leaves its last batch pending;
    # flush it so the analyzers still see those threads.
    for package in context.packages:
        if package._pending_records:
            package.th_run(0)
    return CaptureResult(
        machine=machine,
        space=space,
        packages=[package.capture for package in context.packages],
        payload=payload,
        line_bits=machine.l1d.line_bits,
    )
