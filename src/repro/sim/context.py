"""The execution context handed to traced programs."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cache.hierarchy import CacheHierarchy
from repro.core.package import ThreadPackage
from repro.machine.spec import MachineSpec
from repro.mem.allocator import AddressSpace
from repro.mem.arrays import ArrayHandle
from repro.mem.layout import Layout
from repro.obs.telemetry import DISABLED, Telemetry
from repro.trace.recorder import TraceRecorder


@dataclass
class SimContext:
    """Everything a traced program needs to run under simulation.

    Programs allocate their arrays through :meth:`allocate_array`, record
    references through :attr:`recorder`, and (for threaded versions)
    obtain an instrumented thread package through
    :meth:`make_thread_package`.  Capture and SMP contexts are
    subclasses differing only in their recorder and :meth:`build_package`
    (``hierarchy`` is ``None`` under capture).
    """

    machine: MachineSpec
    hierarchy: CacheHierarchy | None
    recorder: TraceRecorder
    space: AddressSpace
    packages: list[ThreadPackage] = field(default_factory=list)
    verify: bool = False
    #: Observability handle (``repro.obs``): the event bus and metrics
    #: registry every package and oracle created through this context
    #: reports into.  The shared disabled singleton by default, so the
    #: un-instrumented path costs one attribute test.
    obs: Telemetry = DISABLED
    #: Optional :class:`repro.obs.profile.LocalityProfiler`, propagated
    #: to every thread package created through this context so dispatch
    #: and bin sweeps report their (fork site, bin) scopes.  ``None``
    #: (profiling off) keeps the hooks at one attribute test.
    profiler: object | None = None

    def allocate_array(
        self,
        name: str,
        shape: tuple[int, ...],
        element_size: int = 8,
        layout: Layout = Layout.COLUMN_MAJOR,
    ) -> ArrayHandle:
        """Allocate a named array in the simulated address space."""
        size = element_size
        for dim in shape:
            size *= dim
        region = self.space.allocate(name, size)
        if self.obs.enabled:
            self.obs.bus.instant(
                "mem.alloc", array=name, bytes=size, base=region.base
            )
        return ArrayHandle(
            name, region.base, shape, element_size=element_size, layout=layout
        )

    def make_thread_package(self, **options) -> ThreadPackage:
        """An instrumented thread package wired to this context's recorder.

        ``options`` are :class:`~repro.core.package.ThreadPackage`'s
        (``block_size``, ``hash_size``, ``fold_symmetric``, ``policy``,
        ``costs``).  The package's own memory behaviour (thread records,
        bin headers, hash probes) is simulated alongside the
        application's.
        """
        return self._register("independent", **options)

    def make_dependent_thread_package(self, **options) -> ThreadPackage:
        """An instrumented :class:`~repro.core.deps.DependentThreadPackage`
        (the Section 6 dependency extension); ``options`` as for
        :meth:`make_thread_package`."""
        return self._register("dependent", **options)

    def make_guarded_thread_package(self, **options) -> ThreadPackage:
        """An instrumented :class:`~repro.verify.guarded.GuardedThreadPackage`
        (validated hints, contained thread procs, optional step budget);
        ``options`` as for :meth:`make_thread_package`, plus the guard's
        ``thread_budget``, ``max_address`` and ``strict_hints``."""
        return self._register("guarded", **options)

    def build_package(self, kind: str, **kwargs) -> ThreadPackage:
        """The package factory: a ``kind`` package (``"independent"``,
        ``"dependent"`` or ``"guarded"``) from the assembled arguments —
        all that capture and SMP contexts override."""
        if kind == "dependent":
            from repro.core.deps import DependentThreadPackage

            return DependentThreadPackage(**kwargs)
        if kind == "guarded":
            from repro.verify.guarded import GuardedThreadPackage

            return GuardedThreadPackage(**kwargs)
        return ThreadPackage(**kwargs)

    def _register(self, kind: str, **kwargs) -> ThreadPackage:
        package = self.build_package(
            kind,
            l2_size=self.machine.l2.size,
            recorder=self.recorder,
            address_space=self.space,
            obs=self.obs,
            **kwargs,
        )
        if self.verify:
            from repro.verify.scheduler_oracle import SchedulerOracle

            oracle = SchedulerOracle(machine=self.machine.name)
            oracle.obs = self.obs
            package.attach_oracle(oracle)
        if self.profiler is not None:
            package.profiler = self.profiler
        self.packages.append(package)
        return package

    @property
    def total_forks(self) -> int:
        return sum(p.total_forks for p in self.packages)

    @property
    def total_dispatches(self) -> int:
        return sum(p.total_dispatches for p in self.packages)
