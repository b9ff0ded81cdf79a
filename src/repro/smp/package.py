"""The SMP thread package: bins as the unit of parallel work.

``SmpThreadPackage`` keeps the three-call interface.  ``th_fork`` is
unchanged (forking is a serial section, executed on processor 0);
``th_run`` partitions the ready list across processors with an
assignment policy and dispatches each processor's bins against its own
private cache hierarchy (switching the run's one recorder to it first).

The simulation executes processors one after another — their caches are
private, so only the shared-memory *timing* needs the parallel view,
which the engine reconstructs as a makespan.
"""

from __future__ import annotations

from typing import Callable

from repro.core.package import ThreadPackage
from repro.smp.assign import AssignmentPolicy, resolve_assignment


class SmpThreadPackage(ThreadPackage):
    """A :class:`ThreadPackage` whose ``th_run`` fans bins out to CPUs.

    ``switch_to(cpu)`` moves the run's recording to processor ``cpu``
    (:meth:`repro.smp.engine.SmpContext.switch_to`).
    """

    def __init__(
        self,
        *args,
        processors: int,
        switch_to: Callable[[int], None],
        assignment: str | AssignmentPolicy = "chunked",
        **kwargs,
    ) -> None:
        super().__init__(*args, **kwargs)
        self.switch_to = switch_to
        self.assignment = resolve_assignment(assignment)
        self.processors = processors
        #: Per-CPU totals accumulated over every th_run.
        self.cpu_dispatches = [0] * self.processors
        self.cpu_bins = [0] * self.processors

    def execute_bins(self, bins) -> list[int]:
        """Partition ``bins`` over the processors and run each queue.

        ``th_run`` hands in the ready list in traversal-policy order, so
        the locality tour survives on each CPU; the assignment policy
        decides which processor owns which bin.
        """
        counts: list[int] = []
        for cpu, queue in enumerate(self.assignment(bins, self.processors)):
            self.switch_to(cpu)
            before = self._total_dispatches
            cpu_counts = super().execute_bins(queue)
            counts.extend(cpu_counts)
            self.cpu_dispatches[cpu] += self._total_dispatches - before
            self.cpu_bins[cpu] += len(cpu_counts)
        self.switch_to(0)
        return counts
