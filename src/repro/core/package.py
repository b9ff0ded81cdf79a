"""The thread package: ``th_init`` / ``th_fork`` / ``th_run`` (Section 3).

``ThreadPackage`` is the user-facing object.  Untraced, it is a small,
fast scheduler you can drive from plain Python (that mode backs the
Table 1 overhead micro-benchmark and the examples).  Given a
:class:`~repro.trace.recorder.TraceRecorder` and an
:class:`~repro.mem.allocator.AddressSpace`, it additionally simulates its
own memory behaviour — thread records streaming through the cache, hash
probes, bin headers — which is what makes the threaded versions' extra
compulsory misses in the paper's Table 3 appear in the reproduction too.

The user interface follows the paper exactly:

* ``th_init(block_size, hash_size)`` — set block dimension size and hash
  table size; 0 selects the configuration-dependent default.
* ``th_fork(func, arg1, arg2, hint1, hint2, hint3)`` — create and
  schedule a thread to call ``func(arg1, arg2)``; unused hints are 0.
* ``th_run(keep)`` — run every scheduled thread, bin by bin; destroy the
  thread specifications unless ``keep`` is true.

There are no thread handles and no blocking: threads run to completion
on the caller's stack, in ready-list order.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.core.bins import BinTable
from repro.core.hints import HintVector
from repro.core.policies import TraversalPolicy, resolve_policy
from repro.core.scheduler import (
    DEFAULT_HASH_SIZE,
    LocalityScheduler,
    default_block_size,
)
from repro.core.stats import SchedulingStats, next_run_seq
from repro.core.thread import ThreadGroup, ThreadSpec
from repro.mem.allocator import AddressSpace
from repro.mem.arrays import RefSegment
from repro.obs.telemetry import DISABLED, Telemetry
from repro.trace.costmodel import DEFAULT_THREAD_COSTS, ThreadCostModel
from repro.trace.recorder import TraceRecorder

#: Prefix of every region a package allocates for itself (hash table,
#: bin headers, thread groups), which sets them apart from program data.
PACKAGE_REGION_PREFIX = "th_"


class ThreadPackage:
    """A locality-scheduling, run-to-completion thread package.

    Parameters
    ----------
    l2_size:
        Second-level cache size in bytes; the source of the default block
        dimension size (``l2_size / 2``, the value used by every 2-D
        experiment in the paper).
    block_size, hash_size:
        Initial scheduler configuration; 0 selects defaults, as in
        ``th_init``.
    fold_symmetric:
        Place (hi, hj) and (hj, hi) threads in the same bin.
    policy:
        Bin traversal order for ``th_run``; the paper's order is
        ``"creation"``.
    recorder, address_space, costs:
        When both ``recorder`` and ``address_space`` are given the
        package traces its own instructions and memory references.
    obs:
        Observability handle (``repro.obs``); the disabled singleton by
        default.  When enabled the package emits spans for fork batches
        and bin sweeps and populates the scheduler metrics (fork and
        dispatch counters, bin-occupancy histogram).
    """

    def __init__(
        self,
        l2_size: int,
        block_size: int = 0,
        hash_size: int = 0,
        fold_symmetric: bool = False,
        policy: str | TraversalPolicy = "creation",
        recorder: TraceRecorder | None = None,
        address_space: AddressSpace | None = None,
        costs: ThreadCostModel = DEFAULT_THREAD_COSTS,
        obs: Telemetry = DISABLED,
    ) -> None:
        if (recorder is None) != (address_space is None):
            raise ValueError(
                "tracing needs both recorder and address_space (or neither)"
            )
        if l2_size <= 0:
            raise ValueError(f"l2_size must be positive, got {l2_size}")
        self.l2_size = l2_size
        self.fold_symmetric = fold_symmetric
        self.policy = resolve_policy(policy)
        self.recorder = recorder
        self.space = address_space
        self.costs = costs
        self.obs = obs
        #: Telemetry lane for this package's spans (fork batches of two
        #: packages may overlap in time; separate lanes keep each lane's
        #: begin/end events properly nested).
        self._obs_tid = obs.bus.new_tid() if obs.enabled else 0
        self._fork_batch_open = False
        self._run_seq = 0
        self._forks_reported = 0
        self._dispatches_reported = 0
        self._running = False
        self._total_forks = 0
        self._total_dispatches = 0
        self._alloc_seq = 0
        #: Optional :class:`repro.verify.scheduler_oracle.SchedulerOracle`;
        #: attach with :meth:`attach_oracle`.  ``None`` keeps every hook a
        #: single attribute test.
        self.oracle = None
        #: Optional :class:`repro.obs.profile.LocalityProfiler`; attached
        #: by ``SimContext`` when profiling is on.  The package only tells
        #: it which bin sweep and fork site are dispatching — the cache
        #: hierarchy does the actual charging.  ``None`` keeps dispatch at
        #: one attribute test.
        self.profiler = None
        self.run_history: list[SchedulingStats] = []
        self._hash_base: int | None = None
        self.scheduler: LocalityScheduler
        self.table: BinTable
        self.th_init(block_size, hash_size)

    # ------------------------------------------------------------------
    # th_init
    # ------------------------------------------------------------------
    def th_init(self, block_size: int = 0, hash_size: int = 0) -> None:
        """Set the block dimension size and hash table size.

        May be called again to change the sizes, but only while no
        threads are scheduled (re-binning forked threads is not part of
        the paper's interface).  Passing 0 selects the defaults:
        ``l2_size / 2`` for the block dimension and 64 hash entries per
        dimension.
        """
        if getattr(self, "table", None) is not None and self.pending_threads:
            raise RuntimeError("cannot th_init while threads are scheduled")
        if block_size == 0:
            block_size = default_block_size(self.l2_size, dims=2)
        if hash_size == 0:
            hash_size = DEFAULT_HASH_SIZE
        self.scheduler = LocalityScheduler(
            block_size, hash_size, fold=self.fold_symmetric
        )
        self.table = BinTable(self.scheduler, self.costs.group_capacity)
        if getattr(self, "oracle", None) is not None:
            self.table.on_allocate = self.oracle.on_bin_allocated
        if self.space is not None and self._hash_base is None:
            entries = hash_size ** 3
            # The C package's table is hash_size^3 pointers; cap the
            # simulated region at 16 MB of address space (virtual only --
            # just the probed entries ever reach the cache simulator).
            name = f"{PACKAGE_REGION_PREFIX}hash_table"
            if name in self.space:
                # A second package in the same simulated address space.
                suffix = 2
                while f"{name}_{suffix}" in self.space:
                    suffix += 1
                name = f"{name}_{suffix}"
            self._hash_table_name = name
            region = self.space.allocate(
                name, min(entries * 8, 16 * 1024 * 1024)
            )
            self._hash_base = region.base

    # ------------------------------------------------------------------
    # th_fork
    # ------------------------------------------------------------------
    def th_fork(
        self,
        func: Callable[[Any, Any], Any],
        arg1: Any = None,
        arg2: Any = None,
        hint1: int = 0,
        hint2: int = 0,
        hint3: int = 0,
    ) -> None:
        """Create and schedule a thread to call ``func(arg1, arg2)``.

        ``hint1..hint3`` are the memory addresses used as scheduling
        hints; trailing zeros reduce the dimensionality (Section 3.1).
        """
        self._fork_impl(func, arg1, arg2, hint1, hint2, hint3)

    def _fork_impl(
        self,
        func: Callable[[Any, Any], Any],
        arg1: Any,
        arg2: Any,
        hint1: int,
        hint2: int,
        hint3: int,
    ) -> tuple["Bin", ThreadGroup, int]:
        """The body of ``th_fork``; returns where the record landed so
        scheduler extensions (dependencies, SMP) can track threads."""
        if self._running:
            raise RuntimeError("th_fork from inside a running thread is not supported")
        hints = HintVector(hint1, hint2, hint3)
        slot, block = self.scheduler.locate(hints)
        bin_ = self.table.find(slot, block)
        if bin_ is None:
            header_address = self._bin_header_address() if self.space else None
            bin_ = self.table.find_or_allocate(slot, block, header_address)
        group = bin_.current_group
        if group is None:
            group = self._new_group()
            bin_.groups.append(group)
        spec = ThreadSpec(func, arg1, arg2)
        index = group.append(spec)
        self._total_forks += 1
        if self.obs.enabled and not self._fork_batch_open:
            # One span from the first fork to the next th_run covers the
            # whole scheduling phase; individual forks are far too hot to
            # trace one by one.
            self.obs.bus.begin("sched.fork_batch", tid=self._obs_tid)
            self._fork_batch_open = True
        if self.oracle is not None:
            self.oracle.on_fork(bin_, group, index, spec)
        if self.recorder is not None:
            profiler = self.profiler
            if profiler is not None:
                # Fork-time package traffic (hash probe, thread record,
                # bin header) is locality cost *of the forked thread*:
                # charge it to the thread's own (site, bin) pair.
                profiler.enter_site(func)
                profiler.enter_bin(str(bin_.key))
                try:
                    self._trace_fork(slot, bin_.header_address, group, index)
                finally:
                    profiler.exit_bin()
                    profiler.exit_site()
            else:
                self._trace_fork(slot, bin_.header_address, group, index)
        return bin_, group, index

    # ------------------------------------------------------------------
    # th_run
    # ------------------------------------------------------------------
    def th_run(self, keep: int = 0) -> SchedulingStats:
        """Run all scheduled threads; return the run's distribution stats.

        Bins are traversed in the configured policy order (the paper's
        ready-list order by default), every thread in a bin running
        before the next bin.  Thread specifications are destroyed unless
        ``keep`` is non-zero, allowing re-execution.
        """
        obs = self.obs
        if obs.enabled:
            self._close_fork_batch()
            self._run_seq += 1
            obs.bus.begin(
                "sched.run",
                tid=self._obs_tid,
                run=self._run_seq,
                threads=self.pending_threads,
                keep=keep,
            )
        oracle = self.oracle
        try:
            if oracle is not None:
                from repro.core.policies import creation_order

                oracle.on_run_start(
                    self.table.all_threads(), ordered=self.policy is creation_order
                )
            bins = self.policy(self.table.ready)
            counts = self.execute_bins(bins)
            if oracle is not None:
                oracle.on_run_end(keep)
        finally:
            if obs.enabled:
                obs.bus.end(tid=self._obs_tid)
        if not keep:
            self.table.clear_threads()
        stats = SchedulingStats.from_counts(counts, seq=next_run_seq())
        self.run_history.append(stats)
        if obs.enabled:
            self._record_run_metrics(stats, counts)
        return stats

    def _close_fork_batch(self) -> None:
        """Close the open fork-batch span, stamping its fork count."""
        if self._fork_batch_open:
            self.obs.bus.end(tid=self._obs_tid, forks=self._total_forks)
            self._fork_batch_open = False

    def _record_run_metrics(self, stats: SchedulingStats, counts: list[int]) -> None:
        """Populate the scheduler metrics after one ``th_run``.

        Forks and dispatches are reported as deltas here rather than
        counted one by one in the (very hot) fork/dispatch paths.
        """
        metrics = self.obs.metrics
        metrics.counter("sched.runs").inc()
        metrics.counter("sched.forks").inc(self._total_forks - self._forks_reported)
        self._forks_reported = self._total_forks
        metrics.counter("sched.dispatches").inc(
            self._total_dispatches - self._dispatches_reported
        )
        self._dispatches_reported = self._total_dispatches
        occupancy = metrics.histogram("sched.bin_occupancy")
        for count in counts:
            occupancy.observe(count)
        metrics.counter("sched.bins_swept").inc(len(counts))
        metrics.gauge("sched.bins").set(self.bin_count)
        metrics.gauge("sched.max_chain_length").set(self.table.max_chain_length)

    def execute_bins(self, bins) -> list[int]:
        """Run every thread of ``bins`` in order; return per-bin counts.

        The building block of ``th_run``, exposed so schedulers that
        *partition* the ready list (e.g. the SMP extension, which hands
        whole bins to processors) can reuse the dispatch loop — including
        its trace accounting — without re-running the whole list.
        """
        recorder = self.recorder
        costs = self.costs
        counts: list[int] = []
        oracle = self.oracle
        obs = self.obs
        bus = obs.bus if obs.enabled else None
        profiler = self.profiler
        self._running = True
        try:
            for bin_ in bins:
                if oracle is not None:
                    oracle.on_bin_start(bin_)
                if bin_.thread_count == 0:
                    continue
                counts.append(bin_.thread_count)
                if bus is not None:
                    # One span per dispatched bin: the unit repro-trace's
                    # "top bins" report ranks.  Per-thread spans would
                    # dominate the run they are meant to observe.
                    bus.begin(
                        "sched.bin",
                        tid=self._obs_tid,
                        key=str(bin_.key),
                        threads=bin_.thread_count,
                    )
                if profiler is not None:
                    profiler.enter_bin(str(bin_.key))
                try:
                    if recorder is not None and bin_.header_address is not None:
                        recorder.record(
                            RefSegment(bin_.header_address, 8, 1, 8)
                        )
                    for group in bin_.groups:
                        if recorder is not None and group.base_address is not None:
                            recorder.record(
                                RefSegment(
                                    group.base_address, 8, max(1, costs.run_extra_refs), 8
                                )
                            )
                        for index, spec in enumerate(group):
                            self._dispatch(group, index, spec)
                finally:
                    if bus is not None:
                        bus.end(tid=self._obs_tid)
                    if profiler is not None:
                        profiler.exit_bin()
        finally:
            self._running = False
        return counts

    def _dispatch(self, group: ThreadGroup, index: int, spec: ThreadSpec) -> None:
        """Run one thread with its dispatch-cost trace accounting."""
        profiler = self.profiler
        if profiler is not None:
            # The thread-record read below is dispatch cost *of this
            # thread*, so the site scope opens before it.
            profiler.enter_site(spec.func)
        try:
            recorder = self.recorder
            if recorder is not None:
                costs = self.costs
                recorder.count_thread_instructions(costs.run_instructions)
                if group.base_address is not None:
                    # Dispatch reads the thread record itself.
                    recorder.record(
                        RefSegment(
                            group.slot_address(index, costs.slot_size),
                            8,
                            max(1, costs.slot_size // 8),
                            8,
                        )
                    )
            oracle = self.oracle
            if oracle is not None:
                oracle.on_dispatch_start(spec)
                try:
                    self._invoke(group, index, spec)
                finally:
                    oracle.on_dispatch_end(spec)
            else:
                self._invoke(group, index, spec)
            self._total_dispatches += 1
        finally:
            if profiler is not None:
                profiler.exit_site()

    def _invoke(self, group: ThreadGroup, index: int, spec: ThreadSpec):
        """Actually run one thread proc.

        The seam guarded execution overrides: the base package lets any
        exception propagate (the paper's package would crash too);
        :class:`repro.verify.guarded.GuardedThreadPackage` adds budgets
        and exception capture here.
        """
        return spec.run()

    def attach_oracle(self, oracle) -> None:
        """Attach a scheduler oracle; survives subsequent ``th_init``."""
        self.oracle = oracle
        self.table.on_allocate = oracle.on_bin_allocated

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def pending_threads(self) -> int:
        """Threads scheduled and not yet destroyed by a ``th_run``."""
        if getattr(self, "table", None) is None:
            return 0
        return sum(bin_.thread_count for bin_ in self.table.ready)

    @property
    def total_forks(self) -> int:
        return self._total_forks

    @property
    def total_dispatches(self) -> int:
        """Threads actually executed (counts re-runs under ``keep``)."""
        return self._total_dispatches

    @property
    def bin_count(self) -> int:
        return self.table.bin_count

    def distribution(self) -> SchedulingStats:
        """Stats for the currently scheduled threads, without running."""
        counts = [b.thread_count for b in self.table.ready if b.thread_count]
        return SchedulingStats.from_counts(counts)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _next_name(self, kind: str) -> str:
        self._alloc_seq += 1
        name = f"{PACKAGE_REGION_PREFIX}{kind}_{self._alloc_seq}"
        if self.space is not None:
            # A second package in the same simulated address space skips
            # over names its sibling already claimed (same discipline as
            # the hash-table allocation in ``th_init``).
            while name in self.space:
                self._alloc_seq += 1
                name = f"{PACKAGE_REGION_PREFIX}{kind}_{self._alloc_seq}"
        return name

    def _bin_header_address(self) -> int:
        region = self.space.allocate(self._next_name("bin"), 64)
        return region.base

    def _new_group(self) -> ThreadGroup:
        base = None
        if self.space is not None:
            base = self.space.allocate(
                self._next_name("group"), self.costs.group_bytes
            ).base
        return ThreadGroup(self.costs.group_capacity, base_address=base)

    def _trace_fork(
        self,
        slot: tuple[int, int, int],
        header_address: int | None,
        group: ThreadGroup,
        index: int,
    ) -> None:
        recorder = self.recorder
        costs = self.costs
        recorder.count_thread_instructions(costs.fork_instructions)
        # Hash-table probe: one read of the slot's chain-head pointer.
        hash_size = self.scheduler.hash_size
        flat = (slot[0] * hash_size + slot[1]) * hash_size + slot[2]
        table_size = self.space[self._hash_table_name].size
        entry_address = self._hash_base + (flat * 8) % table_size
        recorder.record(RefSegment(entry_address, 8, 1, 8))
        # Bin header: read the group link, write the updated count.
        if header_address is not None and costs.fork_extra_refs > 1:
            recorder.record(
                RefSegment(header_address, 8, costs.fork_extra_refs - 1, 8),
                writes=1,
            )
        # The thread record itself: func pointer, two args, padding.
        slot_address = group.slot_address(index, costs.slot_size)
        elements = max(1, costs.slot_size // 8)
        recorder.record(
            RefSegment(slot_address, 8, elements, 8), writes=elements
        )
