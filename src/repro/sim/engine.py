"""The simulator: fresh state per run, crude-analysis timing at the end."""

from __future__ import annotations

from typing import Any, Callable

from repro.machine.spec import MachineSpec
from repro.machine.timing import TimingInputs, TimingModel
from repro.mem.allocator import AddressSpace
from repro.obs.config import resolve_telemetry
from repro.obs.profile import LocalityProfiler, current_collector
from repro.obs.telemetry import Telemetry
from repro.resilience.errors import ReproError, SimulationError
from repro.resilience.faults import fault_point
from repro.sim.context import SimContext
from repro.sim.result import SimResult
from repro.trace.recorder import TraceRecorder
from repro.trace.replay import replay_into
from repro.verify.config import resolve_verify

TracedProgram = Callable[[SimContext], Any]


class Simulator:
    """Runs traced programs on one machine model.

    Each :meth:`run` gets a fresh cache hierarchy, recorder, and address
    space, so results are independent and deterministic.

    ``verify`` arms the runtime-verification oracles (see
    ``repro.verify``): a :class:`~repro.verify.cache_oracle.CacheOracle`
    audits the hierarchy after every access batch, and every thread
    package the program creates gets a
    :class:`~repro.verify.scheduler_oracle.SchedulerOracle`.  ``None``
    (the default) defers to the process-wide switch
    (``repro.verify.config``), which is off — benchmarks pay nothing.

    ``telemetry`` attaches an observability handle (see ``repro.obs``):
    the run emits structured spans for its phases, a cache sampler
    streams per-interval miss-class series, and the scheduler populates
    the metrics registry.  ``None`` defers to the process-wide handle
    (``repro.obs.config``), which is the disabled singleton — the same
    zero-cost contract as verification.
    """

    def __init__(
        self,
        machine: MachineSpec,
        verify: bool | None = None,
        telemetry: Telemetry | None = None,
    ) -> None:
        self.machine = machine
        self.timing = TimingModel(machine)
        self.verify = verify
        self.telemetry = telemetry

    def run(
        self,
        program: TracedProgram,
        name: str | None = None,
        code_footprint: int = 4096,
        l2_page_mapper=None,
        verify: bool | None = None,
        telemetry: Telemetry | None = None,
        capture=None,
    ) -> SimResult:
        """Simulate ``program`` and return its result.

        ``code_footprint`` is the bytes of kernel code charged as one-time
        compulsory instruction-side misses (Section 4's simulations
        "exclude program initialization costs" but include the resident
        loop code; 4 KB covers every kernel in the paper).
        ``l2_page_mapper`` optionally models a physically-indexed L2
        behind a virtual-to-physical page table (repro.mem.paging).
        ``verify`` overrides the simulator-level and process-wide
        verification switches for this one run; ``telemetry`` does the
        same for the observability handle.  ``capture`` optionally
        attaches a :class:`repro.trace.store.TraceCapture` tap recording
        every data batch for the content-addressed trace store (mutually
        exclusive with ``l2_page_mapper``: replay rebuilds the hierarchy
        without a page table, so a mapped run must not be stored).
        """
        program_name = name or getattr(program, "__name__", "program")
        if capture is not None and l2_page_mapper is not None:
            raise ValueError(
                "trace capture does not support an L2 page mapper"
            )

        def feed(hierarchy, obs, verify_run) -> dict[str, Any]:
            hierarchy.l2_page_mapper = l2_page_mapper
            if capture is not None:
                hierarchy.tap = capture
            recorder = TraceRecorder(hierarchy)
            # Stagger allocations by a few L2 lines so equal-sized arrays do
            # not alias the same sets exactly (a scaled-cache artifact; real
            # allocators and page placement provide the same spreading).
            space = AddressSpace(stagger=3 * self.machine.l2.line_size)
            context = SimContext(
                machine=self.machine,
                hierarchy=hierarchy,
                recorder=recorder,
                space=space,
                verify=verify_run,
                obs=obs,
            )
            if current_collector() is not None:
                context.profiler = hierarchy.profiler = LocalityProfiler(
                    program=program_name,
                    machine=self.machine.name,
                    space=space,
                    obs=obs,
                    drain=recorder.drain,
                )
            with obs.bus.span("sim.program"):
                try:
                    payload = program(context)
                    # The program's last references may still be
                    # buffered; feed them before anything reads the
                    # caches (oracle, sampler, profiler, snapshot).
                    recorder.drain()
                except ReproError:
                    raise  # already structured (e.g. an armed fault at an inner site)
                except (KeyboardInterrupt, SystemExit):
                    raise
                except Exception as exc:
                    raise SimulationError(
                        f"{type(exc).__name__}: {exc}",
                        machine=self.machine.name,
                        program=program_name,
                    ) from exc
            thread_faults: list = []
            for package in context.packages:
                report = getattr(package, "fault_report", None)
                if report is not None:
                    thread_faults.extend(report())
            # The paper quotes per-run distributions ("64000 threads ... in
            # 46 bins" for a typical iteration); report the chronologically
            # last th_run's stats.  Runs are stamped with a process-wide
            # dispatch sequence, so a program that creates package B but
            # runs package A last reports A's distribution, not B's.
            runs = [stats for package in context.packages for stats in package.run_history]
            sched = max(runs, key=lambda stats: stats.seq, default=None)
            return dict(
                app_instructions=recorder.app_instructions,
                thread_instructions=recorder.thread_instructions,
                forks=context.total_forks,
                dispatches=context.total_dispatches,
                sched=sched,
                payload=payload,
                thread_faults=thread_faults,
            )

        return self._simulate(
            "run", program_name, feed, code_footprint, verify, telemetry
        )

    def replay(
        self,
        stored,
        verify: bool | None = None,
        telemetry: Telemetry | None = None,
    ) -> SimResult:
        """Replay a stored trace (:class:`repro.trace.store.StoredTrace`)
        instead of re-running the traced program.

        The stored stream is the *complete* record of the run's data
        side — every ``access_data`` batch verbatim, boundaries included
        — so feeding it back through a fresh hierarchy reproduces the
        cache statistics bit for bit (:func:`repro.trace.replay.replay_into`
        picks the vectorized or the chunked path).  Instruction fetches
        only bump order-independent counters, so the stored totals are
        charged in one call; forks, dispatches and the final scheduling
        distribution come from the header, which is everything the
        timing model and :class:`SimResult` need.  ``payload`` is
        ``None``: replay reproduces *statistics*, not the program's
        numeric output.  No locality profiler is attached: a stored
        stream carries no fork-site context.
        """
        if stored.machine != self.machine.name:
            raise ValueError(
                f"stored trace is for machine {stored.machine!r}, "
                f"not {self.machine.name!r}"
            )
        header = stored.header
        if header["line_bits"] != self.machine.l1d.line_bits:
            raise ValueError(
                "stored trace L1D line size does not match this machine"
            )

        def feed(hierarchy, obs, verify_run) -> dict[str, Any]:
            replay_into(hierarchy, stored)
            hierarchy.fetch_instructions(
                header["app_instructions"] + header["thread_instructions"]
            )
            return dict(
                app_instructions=header["app_instructions"],
                thread_instructions=header["thread_instructions"],
                forks=header["forks"],
                dispatches=header["dispatches"],
                sched=stored.sched_stats(),
                payload=None,
                thread_faults=[],
            )

        return self._simulate(
            "replay", stored.program, feed, header["code_footprint"],
            verify, telemetry,
        )

    def _simulate(
        self,
        kind: str,
        program_name: str,
        feed: Callable[..., dict[str, Any]],
        code_footprint: int,
        verify: bool | None,
        telemetry: Telemetry | None,
    ) -> SimResult:
        """The pipeline :meth:`run` and :meth:`replay` share: a fresh
        hierarchy with its oracle and sampler, then
        ``feed(hierarchy, obs, verify_run)`` drives the data stream and
        returns the :class:`SimResult` fields only it knows, then the
        audit, snapshot, timing and metrics."""
        verify_run = resolve_verify(verify, self.verify)
        obs = resolve_telemetry(telemetry, self.telemetry)
        fault_point("sim.run", machine=self.machine.name, program=program_name)
        bus = obs.bus
        base_depth = bus.depth()
        bus.begin(f"sim.{kind}", machine=self.machine.name, program=program_name)
        bus.begin("sim.setup")
        try:
            hierarchy = self.machine.build_hierarchy()
            if verify_run:
                from repro.verify.cache_oracle import CacheOracle

                hierarchy.oracle = CacheOracle(
                    machine=self.machine.name, program=program_name
                )
                hierarchy.oracle.obs = obs
            sampler = None
            if obs.enabled:
                from repro.obs.sampler import CacheSampler

                sampler = CacheSampler(obs, program=program_name)
                hierarchy.observer = sampler
            if code_footprint:
                hierarchy.charge_code_footprint(code_footprint)
            bus.end()  # sim.setup
            fed = feed(hierarchy, obs, verify_run)
            if verify_run and hierarchy.oracle is not None:
                with bus.span("verify.final_check"):
                    hierarchy.oracle.final_check(hierarchy)
            if sampler is not None:
                sampler.sample(hierarchy)  # flush the tail interval
            profiler = hierarchy.profiler
            if profiler is not None:
                profiler.finish(hierarchy)  # flush the tail timeline sample
                current_collector().add(profiler)
            stats = hierarchy.snapshot()
            time = self.timing.estimate(
                TimingInputs(
                    instructions=fed["app_instructions"],
                    l1_misses=stats.l1.misses,
                    l2_misses=stats.l2.misses,
                    forks=fed["forks"],
                    thread_runs=fed["dispatches"],
                )
            )
        finally:
            # Close this run's spans (and sim.setup, if it raised inside
            # it) without touching any enclosing scope's spans.
            bus.unwind(base_depth)
        if obs.enabled:
            metrics = obs.metrics
            metrics.counter(f"sim.{kind}s").inc()
            metrics.counter("sim.forks").inc(fed["forks"])
            metrics.counter("sim.dispatches").inc(fed["dispatches"])
            metrics.histogram("sim.modeled_seconds").observe(time.total)
        return SimResult(
            program=program_name,
            machine=self.machine.name,
            stats=stats,
            time=time,
            verified=verify_run,
            **fed,
        )
