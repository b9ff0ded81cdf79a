"""DineroIII ``din`` trace format: read, write, and simulate.

The paper's cache results come from Pixie traces fed to a modified
DineroIII.  This module makes the reproduction's simulator usable the
same way, standalone: it reads and writes the classic ``din`` input
format — one reference per line, ``<label> <hex address>`` with label
0 = data read, 1 = data write, 2 = instruction fetch — and simulates a
file through a two-level hierarchy, printing the same classification
the paper's tables use.

A command-line entry point is installed as ``repro-dinero``::

    repro-dinero trace.din --l1-size 16384 --l2-size 2097152

Programs simulated by :class:`~repro.sim.engine.Simulator` can export
their reference stream with a :class:`DinWriter` attached as an observer
of the recorder, producing traces other cache simulators can consume.
"""

from __future__ import annotations

import argparse
import sys
from typing import Iterable, Iterator, TextIO

from repro.cache.config import CacheConfig
from repro.cache.hierarchy import CacheHierarchy, HierarchyStats
from repro.trace.blocks import grid_addresses
from repro.trace.recorder import RecordObserver

READ = 0
WRITE = 1
IFETCH = 2
_VALID_LABELS = (READ, WRITE, IFETCH)


def write_din(stream: TextIO, references: Iterable[tuple[int, int]]) -> int:
    """Write ``(label, address)`` pairs in din format; return the count."""
    count = 0
    for label, address in references:
        if label not in _VALID_LABELS:
            raise ValueError(f"invalid din label {label!r}")
        if address < 0:
            raise ValueError(f"negative address {address:#x}")
        stream.write(f"{label} {address:x}\n")
        count += 1
    return count


def read_din(stream: TextIO) -> Iterator[tuple[int, int]]:
    """Yield ``(label, address)`` pairs from a din-format stream.

    Blank lines and ``#`` comments are skipped (DineroIII itself is
    stricter; the slack costs nothing and helps hand-written tests).
    """
    for line_number, line in enumerate(stream, 1):
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        parts = text.split()
        if len(parts) != 2:
            raise ValueError(f"line {line_number}: expected 'label address'")
        try:
            label = int(parts[0])
            address = int(parts[1], 16)
        except ValueError as exc:
            raise ValueError(f"line {line_number}: {exc}") from None
        if label not in _VALID_LABELS:
            raise ValueError(f"line {line_number}: invalid label {label}")
        yield label, address


class DinWriter(RecordObserver):
    """Writes a recorder's references to a din-format file.

    Attach it as an observer — ``recorder.observers.append(DinWriter(f))``
    — and every record is expanded in the order the simulator sees it,
    its last ``writes`` references labelled stores.  Instruction
    *counts* have no addresses in this reproduction, so each counting
    call emits one ifetch against a synthetic code address (excluded by
    default).
    """

    def __init__(self, stream: TextIO, include_instructions: bool = False) -> None:
        self.stream = stream
        self.include_instructions = include_instructions
        self.references_written = 0

    def on_grid(self, groups, outer: int, writes: int) -> None:
        if not all(groups):
            return  # an empty interleave references nothing
        total = outer * sum(len(group) * group[0].segment.count for group in groups)
        chunks = grid_addresses(groups, outer)
        self._emit((a for chunk in chunks for a in chunk.tolist()), total, writes)

    def on_lines(self, lines, counts, writes: int, line_bits: int) -> None:
        addresses = (
            line << line_bits
            for line, repeat in zip(lines, counts)
            for _ in range(repeat)
        )
        self._emit(addresses, sum(counts), writes)

    def _emit(self, addresses, total: int, writes: int) -> None:
        """Write ``total`` references, the last ``writes`` as stores."""
        reads = total - writes
        self.references_written += write_din(
            self.stream,
            (
                (READ if index < reads else WRITE, address)
                for index, address in enumerate(addresses)
            ),
        )

    def on_instructions(self, count: int, thread: bool) -> None:
        if self.include_instructions and count > 0:
            self.references_written += write_din(
                self.stream, [(IFETCH, 0x40000000)]
            )


def simulate_din(
    references: Iterable[tuple[int, int]],
    l1: CacheConfig,
    l2: CacheConfig,
) -> HierarchyStats:
    """Run a din reference stream through a two-level hierarchy."""
    hierarchy = CacheHierarchy(l1, l1, l2)
    line_bits = l1.line_bits
    batch_lines: list[int] = []
    batch_writes = 0
    for label, address in references:
        if label == IFETCH:
            hierarchy.fetch_instructions(1)
            continue
        batch_lines.append(address >> line_bits)
        if label == WRITE:
            batch_writes += 1
        if len(batch_lines) >= 65536:
            hierarchy.access_data(batch_lines, writes=batch_writes)
            batch_lines, batch_writes = [], 0
    if batch_lines:
        hierarchy.access_data(batch_lines, writes=batch_writes)
    return hierarchy.snapshot()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-dinero",
        description="Simulate a DineroIII-format (din) address trace "
        "through a two-level cache hierarchy with single-run "
        "compulsory/capacity/conflict classification.",
    )
    parser.add_argument("trace", help="din trace file ('-' for stdin)")
    parser.add_argument("--l1-size", type=int, default=16 * 1024)
    parser.add_argument("--l1-line", type=int, default=32)
    parser.add_argument("--l1-assoc", type=int, default=1)
    parser.add_argument("--l2-size", type=int, default=2 * 1024 * 1024)
    parser.add_argument("--l2-line", type=int, default=128)
    parser.add_argument("--l2-assoc", type=int, default=4)
    args = parser.parse_args(argv)

    l1 = CacheConfig("L1", args.l1_size, args.l1_line, args.l1_assoc)
    l2 = CacheConfig("L2", args.l2_size, args.l2_line, args.l2_assoc)
    if args.trace == "-":
        stats = simulate_din(read_din(sys.stdin), l1, l2)
    else:
        with open(args.trace) as stream:
            stats = simulate_din(read_din(stream), l1, l2)

    print(f"I fetches      {stats.inst_fetches:>14,}")
    print(f"D references   {stats.data_refs:>14,}")
    print(f"L1 misses      {stats.l1.misses:>14,}")
    print(f"  rate         {100 * stats.l1_miss_rate:>13.2f}%")
    print(f"L2 misses      {stats.l2.misses:>14,}")
    print(f"  rate         {100 * stats.l2_miss_rate:>13.2f}%")
    print(f"L2 compulsory  {stats.l2.compulsory:>14,}")
    print(f"L2 capacity    {stats.l2.capacity:>14,}")
    print(f"L2 conflict    {stats.l2.conflict:>14,}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
