"""Per-processor books of an SMP run, kept by observing its one recorder.

An SMP run drives every processor through one
:class:`~repro.trace.recorder.TraceRecorder`, retargeted at the running
processor's hierarchy.  :class:`CpuLedger` books to that processor what
its hierarchy cannot count: application instructions, and the L2 lines
it writes.  Lines written from more than one processor are write-shared
(on a real SMP they would ping-pong under an invalidate protocol).

The write ledger is the runtime twin of the static RC003 advisory
(``repro.analysis.races``): an assignment policy places whole bins on
processors, so a line shared between two worker processors must have
been written by two bins — i.e. predicted.  ``write_sharer_map``
exposes the lines and their writers so containment can be checked.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.trace.blocks import grid_to_lines
from repro.trace.recorder import (
    RecordObserver,
    first_store,
    grid_first_store,
    segment_to_lines,
)


class CpuLedger(RecordObserver):
    """Books instructions and written L2 lines to processor ``cpu``.

    Store operands are picked by the record API's convention
    (:func:`~repro.trace.recorder.first_store`), as capture picks them.
    """

    def __init__(self, processors: int, l2_line_bits: int) -> None:
        if processors < 1:
            raise ValueError(f"need at least one processor, got {processors}")
        #: The processor the recorder currently feeds.
        self.cpu = 0
        #: Application instructions each processor executed.
        self.app_instructions = [0] * processors
        self._l2_line_bits = l2_line_bits
        #: L2 line -> set of processors that wrote it.
        self._writers: dict[int, set[int]] = {}

    def on_grid(self, groups, outer: int, writes: int) -> None:
        if not writes:
            return
        bits = self._l2_line_bits
        sweeps = [sweep for group in groups for sweep in group]
        for sweep in sweeps[grid_first_store(groups, outer, writes):]:
            if outer == 1 or not sweep.step:
                lines, _counts = segment_to_lines(sweep.segment, bits)
            else:
                lines = grid_to_lines(((sweep,),), outer, bits)[0].tolist()
            self._note(lines)

    def on_lines(self, lines, counts, writes: int, line_bits: int) -> None:
        if writes:
            shift = self._l2_line_bits - line_bits
            stores = lines[first_store(counts, writes):]
            self._note(line >> shift for line in reversed(stores))

    def on_instructions(self, count: int, thread: bool) -> None:
        if not thread:
            self.app_instructions[self.cpu] += count

    def _note(self, lines: Iterable[int]) -> None:
        cpu = self.cpu
        writers = self._writers
        for line in lines:
            writers.setdefault(line, set()).add(cpu)

    @property
    def write_sharer_map(self) -> dict[int, frozenset[int]]:
        """``line -> processors`` for the write-shared L2 lines only.

        Comparable against the static RC003 prediction when the run
        uses the same machine and allocation order as the capture.
        """
        return {
            line: frozenset(cpus)
            for line, cpus in self._writers.items()
            if len(cpus) > 1
        }

    @property
    def written_lines(self) -> int:
        return len(self._writers)
