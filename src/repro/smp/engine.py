"""The SMP simulator: per-processor cache simulation + makespan timing.

Existing traced programs run unchanged: :class:`SmpContext` is a
:class:`~repro.sim.context.SimContext` whose one recorder is retargeted
at the running processor's hierarchy, and any ``make_thread_package``
it hands out fans bins across processors (dependent and guarded
packages have no SMP schedule and are rejected).

The timing model (documented in DESIGN.md's SMP section): forking is a
serial section on processor 0 charged at the Table 1 fork cost; each
processor then executes its bin queue, its time estimated from its own
instruction/miss counts by the paper's crude analysis, plus a fixed
dispatch cost per bin handed to it; the modeled parallel time
(makespan) is the serial section plus the slowest processor.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.cache.hierarchy import CacheHierarchy, HierarchyStats
from repro.core.stats import SchedulingStats
from repro.machine.timing import TimeBreakdown, TimingInputs, TimingModel
from repro.mem.allocator import AddressSpace
from repro.resilience.errors import ConfigError
from repro.sim.context import SimContext
from repro.smp.assign import AssignmentPolicy
from repro.smp.ledger import CpuLedger
from repro.smp.machine import SmpMachine
from repro.smp.package import SmpThreadPackage
from repro.trace.recorder import TraceRecorder


@dataclass(kw_only=True)
class SmpContext(SimContext):
    """Drop-in replacement for ``SimContext`` on an SMP machine.

    ``machine`` is the per-processor machine (programs size blocks from
    its L2) and ``hierarchy`` the running processor's.
    """

    hierarchies: list[CacheHierarchy]
    ledger: CpuLedger
    assignment: str | AssignmentPolicy = "chunked"

    def switch_to(self, cpu: int) -> None:
        """Run on processor ``cpu``: drain the recorder into the current
        hierarchy, retarget it at ``cpu``'s, and book to ``cpu``."""
        if not 0 <= cpu < len(self.hierarchies):
            raise IndexError(f"no processor {cpu}")
        self.hierarchy = self.hierarchies[cpu]
        self.recorder.retarget(self.hierarchy)
        self.ledger.cpu = cpu

    def build_package(self, kind: str, **kwargs: Any) -> SmpThreadPackage:
        if kind != "independent":
            raise ConfigError(
                f"an SMP run cannot schedule a {kind} thread package: only "
                f"independent packages have their bins split across "
                f"processors",
                field="package",
            )
        return SmpThreadPackage(
            processors=len(self.hierarchies),
            switch_to=self.switch_to,
            assignment=self.assignment,
            **kwargs,
        )


@dataclass(frozen=True)
class CpuReport:
    """One processor's share of the run."""

    cpu: int
    stats: HierarchyStats
    app_instructions: int
    dispatches: int
    bins: int
    exec_time: TimeBreakdown
    dispatch_time: float

    @property
    def busy_seconds(self) -> float:
        return self.exec_time.total + self.dispatch_time


@dataclass(frozen=True)
class SmpResult:
    """Everything measured from one SMP run."""

    program: str
    machine: str
    processors: int
    assignment: str
    cpus: list[CpuReport]
    forks: int
    fork_time: float
    sched: SchedulingStats | None
    write_shared_lines: int
    written_lines: int
    #: ``line -> processors`` for the write-shared L2 lines — the
    #: measured counterpart of the static RC003 advisory (see
    #: ``repro.smp.ledger``).
    write_sharers: dict[int, frozenset[int]] = field(default_factory=dict)
    payload: Any = None

    @property
    def write_shared_line_set(self) -> frozenset[int]:
        """Identities of the write-shared L2 lines."""
        return frozenset(self.write_sharers)

    @property
    def makespan(self) -> float:
        """Serial fork section plus the slowest processor."""
        slowest = max((c.busy_seconds for c in self.cpus), default=0.0)
        return self.fork_time + slowest

    @property
    def total_l2_misses(self) -> int:
        return sum(c.stats.l2.misses for c in self.cpus)

    @property
    def busy_seconds(self) -> list[float]:
        return [c.busy_seconds for c in self.cpus]

    @property
    def load_imbalance(self) -> float:
        """max/mean busy time across processors (1.0 = perfect)."""
        busy = self.busy_seconds
        mean = sum(busy) / len(busy)
        if mean == 0:
            return 1.0
        return max(busy) / mean

    def speedup_over(self, serial_seconds: float) -> float:
        """Speedup of this run's makespan over a serial time."""
        if self.makespan == 0:
            return float("inf")
        return serial_seconds / self.makespan

    def summary(self) -> str:
        busy = ", ".join(f"{b:.3f}" for b in self.busy_seconds)
        return (
            f"{self.program} on {self.machine} ({self.assignment}): "
            f"makespan {self.makespan:.3f}s (fork {self.fork_time:.3f}s; "
            f"busy [{busy}]), {self.total_l2_misses:,} L2 misses, "
            f"{self.write_shared_lines:,} write-shared lines"
        )


class SmpSimulator:
    """Runs traced programs on an :class:`SmpMachine`."""

    def __init__(self, machine: SmpMachine) -> None:
        self.machine = machine
        self.timing = TimingModel(machine.base)

    def run(
        self,
        program: Callable[[SmpContext], Any],
        assignment: str | AssignmentPolicy = "chunked",
        name: str | None = None,
        code_footprint: int = 4096,
    ) -> SmpResult:
        hierarchies = self.machine.build_hierarchies()
        recorder = TraceRecorder(hierarchies[0])
        ledger = CpuLedger(self.machine.processors, self.machine.base.l2.line_bits)
        recorder.observers.append(ledger)
        context = SmpContext(
            machine=self.machine.base,
            hierarchy=hierarchies[0],
            recorder=recorder,
            space=AddressSpace(stagger=3 * self.machine.base.l2.line_size),
            hierarchies=hierarchies,
            ledger=ledger,
            assignment=assignment,
        )
        if code_footprint:
            for hierarchy in hierarchies:
                hierarchy.charge_code_footprint(code_footprint)
        payload = program(context)

        cpus = []
        for cpu, hierarchy in enumerate(hierarchies):
            stats = hierarchy.snapshot()
            dispatches = sum(p.cpu_dispatches[cpu] for p in context.packages)
            exec_time = self.timing.estimate(
                TimingInputs(
                    instructions=ledger.app_instructions[cpu],
                    l1_misses=stats.l1.misses,
                    l2_misses=stats.l2.misses,
                    forks=0,
                    thread_runs=dispatches,
                )
            )
            bins = sum(p.cpu_bins[cpu] for p in context.packages)
            cpus.append(
                CpuReport(
                    cpu=cpu,
                    stats=stats,
                    app_instructions=ledger.app_instructions[cpu],
                    dispatches=dispatches,
                    bins=bins,
                    exec_time=exec_time,
                    dispatch_time=bins * self.machine.dispatch_cost_s,
                )
            )
        forks = context.total_forks
        sched = max(
            (s for package in context.packages for s in package.run_history),
            key=lambda s: s.seq,
            default=None,
        )
        assignment_name = assignment if isinstance(assignment, str) else getattr(
            assignment, "__name__", "custom"
        )
        sharers = ledger.write_sharer_map
        return SmpResult(
            program=name or getattr(program, "__name__", "program"),
            machine=self.machine.name,
            processors=self.machine.processors,
            assignment=assignment_name,
            cpus=cpus,
            forks=forks,
            fork_time=forks * self.machine.base.fork_cost_s,
            sched=sched,
            write_shared_lines=len(sharers),
            written_lines=ledger.written_lines,
            write_sharers=sharers,
            payload=payload,
        )
