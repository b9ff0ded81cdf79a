"""Parallel campaign execution: ``repro-experiments --jobs N``.

Every remaining experiment runs in its own forked process, at most
``--jobs`` at a time, and its record comes back to the one campaign
loop (:func:`repro.resilience.campaign._run_campaign`) in *plan order*,
through a reorder buffer over completion order.  So the run manifest,
the per-experiment records, the summary table and the exit code are
byte-identical to a serial run (timestamps and ``elapsed_s`` aside),
and checkpoints, fail-fast, the circuit breaker and the interrupt flush
are the serial loop's own.  The parent watches each child through the
child's own pipe and its process sentinel:

* **Crashes are charged to the process that died.**  A child that exits
  without sending its result crashed (segfault, OOM kill, an injected
  ``worker.crash``); only its experiment is resubmitted, in plan order.
  An experiment whose process dies ``--max-worker-crashes`` times is
  *quarantined*: recorded as a
  :class:`~repro.resilience.errors.WorkerCrashError` (classified
  ``worker-crash``), an ``error`` record that ``--resume`` retries.
* **Stalls.**  With ``--stall-timeout S`` each child beats on its pipe
  every S/4 seconds (clamped to 0.05–1 s), and after every wait the
  parent SIGKILLs any child whose last beat is older than S; the death
  is then a crash of kind ``stall``.
* **Fault budgets chain.**  Faults armed at worker-side sites
  (``exp.before``, ``sim.run``, ``worker.crash``, ...) ship to the
  children.  While any budget remains one experiment runs at a time and
  its payload carries the budgets still left; each child reports how
  often each fault fired.  A dead child cannot report, so the parent
  charges the ``worker.crash``/``worker.stall`` budget itself when it
  sees the death.
* **Task failures.**  A task that raises outside ``_run_one``, or whose
  result cannot be sent, becomes a classified ``error`` record carrying
  its traceback.
* **Verification, telemetry and narration.**  Each task carries the
  campaign's ``--verify`` choice and telemetry flag; child events and
  metrics are grafted into the parent bus and child narration is
  replayed, at merge time.

A child reporting ``interrupted`` (an ``interrupt``-mode fault) ends the
campaign loop exactly as Ctrl-C ends a serial one: the manifest is
flushed and the campaign exits 130.
"""

from __future__ import annotations

import multiprocessing
import threading
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass
from multiprocessing.connection import wait
from typing import TYPE_CHECKING, Any, Callable, Iterator

from repro.obs.config import telemetry_scope
from repro.obs.progress import CampaignReporter
from repro.obs.telemetry import DISABLED, Telemetry
from repro.resilience.checkpoint import ExperimentRecord
from repro.resilience.errors import WorkerCrashError, as_experiment_error
from repro.resilience.faults import FAULTS, fault_point

if TYPE_CHECKING:  # imported lazily at runtime to avoid a module cycle
    from repro.resilience.campaign import CampaignConfig

#: Fault sites that fire in the parent process even under ``--jobs``:
#: checkpoints (and every other run-store write) are written by the
#: parent, never by workers — so the io.* budgets chain in the parent
#: exactly as they would in a serial campaign.
PARENT_SITES = (
    "checkpoint.write",
    "io.enospc",
    "io.fsync-fail",
    "io.torn-write",
    "io.corrupt",
)


# ----------------------------------------------------------------------
# The executor: one process per job
# ----------------------------------------------------------------------
@dataclass
class Job:
    """One unit of work: its plan-order index and what it has cost."""

    index: int
    experiment_id: str
    attempts: int = 0
    crashes: int = 0
    #: ``perf_counter`` at the first dispatch.
    started: float = 0.0


def _beat_interval(stall_timeout_s: float) -> float:
    """Seconds between a child's beats: a quarter of the stall timeout,
    clamped to 0.05–1 s; 0 (no beats) when stall detection is off."""
    if stall_timeout_s <= 0:
        return 0.0
    return min(1.0, max(0.05, stall_timeout_s / 4))


#: Set once a child must beat no more: when its outcome is sent, or
#: when an injected ``worker.stall`` makes it look wedged (:func:`stop_beats`).
_quiet = threading.Event()


def stop_beats() -> None:
    """Silence this child's beats without killing it."""
    _quiet.set()


def _child(work: Callable[[Any], Any], payload: Any, conn, interval: float) -> None:
    """A child process: send ``("ok", work(payload))`` up ``conn``, or
    ``("failed", (exception, traceback text))``; beat (send ``None``)
    every ``interval`` seconds meanwhile when ``interval`` > 0."""
    _quiet.clear()
    lock = threading.Lock()

    def send(message: tuple) -> None:
        with lock:
            _quiet.set()
            conn.send(message)

    def beat() -> None:
        while not _quiet.wait(interval):
            with lock:
                if not _quiet.is_set():
                    conn.send(None)

    if interval > 0:
        threading.Thread(target=beat, name="repro-beat", daemon=True).start()
    try:
        send(("ok", work(payload)))
    except BaseException as exc:  # noqa: B036 — report it, whatever it is
        text = "".join(
            traceback.format_exception(type(exc), exc, exc.__traceback__)
        ).strip()
        try:
            send(("failed", (exc, text)))
        except Exception:  # the exception itself does not pickle
            send(("failed", (RuntimeError(f"{type(exc).__name__}: {exc}"), text)))


def _context() -> multiprocessing.context.BaseContext:
    """Prefer ``fork``: a child inherits the loaded modules, so any
    runner the parent can call runs in the child too."""
    if "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


@dataclass
class _Running:
    job: Job
    process: multiprocessing.process.BaseProcess
    last_beat: float
    killed: bool = False


def run_jobs(
    jobs: list[Job],
    work: Callable[[Any], Any],
    payload: Callable[[Job], Any],
    *,
    max_jobs: int,
    max_crashes: int,
    stall_timeout_s: float = 0.0,
    solo: Callable[[], bool] = lambda: False,
    on_crash: Callable[[Job, str], None] = lambda job, kind: None,
) -> Iterator[tuple[Job, str, Any]]:
    """Run each job in its own process; yield outcomes in plan order.

    ``payload(job)`` is built in the parent for every attempt and passed
    to ``work`` in the child.  Each job yields one ``(job, kind, value)``:

    * ``"ok"`` — ``value`` is what ``work`` returned;
    * ``"failed"`` — ``work`` raised or its result could not be sent;
      ``value`` is ``(exception, traceback text)``;
    * ``"quarantined"`` — the job's process died ``max_crashes`` times;
      ``value`` is the last death's kind, ``"crash"`` or ``"stall"``.

    ``on_crash(job, kind)`` hears of every death when it happens.  At
    most ``max_jobs`` processes are alive at once, and one while
    ``solo()`` is true.  Jobs dispatch in plan order, a resubmitted job
    ahead of later ones, and an outcome is yielded before anything more
    is dispatched, so ``solo()`` and ``payload`` see what the consumer
    made of it.  Closing the generator kills whatever still runs.
    """
    context = _context()
    interval = _beat_interval(stall_timeout_s)
    pending = list(jobs)
    running: dict[Any, _Running] = {}  # keyed by the read end of its pipe
    finished: dict[int, tuple[Job, str, Any]] = {}
    cursor = 0

    def start(job: Job) -> None:
        job.attempts += 1
        if job.attempts == 1:
            job.started = time.perf_counter()
        reader, writer = context.Pipe(duplex=False)
        process = context.Process(
            target=_child, args=(work, payload(job), writer, interval)
        )
        process.start()
        writer.close()  # the child's copy is now the only write end
        running[reader] = _Running(job, process, time.monotonic())

    def settle(reader, outcome: tuple | None) -> None:
        """Reap a child; no outcome means it died without one."""
        entry = running.pop(reader)
        reader.close()
        entry.process.join()
        job = entry.job
        if outcome is not None:
            finished[job.index] = (job, *outcome)
            return
        job.crashes += 1
        kind = "stall" if entry.killed else "crash"
        on_crash(job, kind)
        if job.crashes >= max_crashes:
            finished[job.index] = (job, "quarantined", kind)
        else:
            pending.append(job)
            pending.sort(key=lambda queued: queued.index)

    try:
        while cursor < len(jobs):
            if jobs[cursor].index in finished:
                yield finished.pop(jobs[cursor].index)
                cursor += 1
                continue
            limit = 1 if solo() else max_jobs
            while pending and len(running) < limit:
                start(pending.pop(0))
            sentinels = {e.process.sentinel: r for r, e in running.items()}
            ready = wait([*running, *sentinels], timeout=interval or None)
            now = time.monotonic()
            for reader in {sentinels.get(handle, handle) for handle in ready}:
                entry = running[reader]
                # Alive before reading: a child that exits after this
                # check is seen on the next wait, with all it sent.
                alive = entry.process.is_alive()
                entry.last_beat = now
                outcome = None
                try:
                    while outcome is None and reader.poll():
                        outcome = reader.recv()  # None is a beat
                except (EOFError, OSError):
                    alive = False  # the write end closed: the child is gone
                if outcome is not None or not alive:
                    settle(reader, outcome)
            if interval:
                for entry in running.values():
                    if not entry.killed and now - entry.last_beat > stall_timeout_s:
                        entry.killed = True
                        entry.process.kill()
    finally:
        for reader, entry in running.items():
            entry.process.kill()
            entry.process.join()
            reader.close()


# ----------------------------------------------------------------------
# The campaign's side: experiments as jobs
# ----------------------------------------------------------------------
class _BufferReporter:
    """Captures a worker's narration for plan-order replay in the parent.

    Presents the slice of the :class:`CampaignReporter` interface that
    :func:`~repro.resilience.campaign._run_one` uses; each call is
    recorded as ``(method, message)`` and replayed verbatim through the
    campaign's real reporter when the worker's result merges.
    """

    def __init__(self) -> None:
        self.messages: list[tuple[str, str]] = []

    def info(self, message: str) -> None:
        self.messages.append(("info", message))

    def detail(self, message: str) -> None:
        self.messages.append(("detail", message))

    def error(self, message: str) -> None:
        self.messages.append(("error", message))


def _execute_experiment(task: dict[str, Any]) -> dict[str, Any]:
    """Run one experiment inside a worker process.

    Reconstructs the campaign environment the serial driver would give
    the experiment — armed faults, the verify switch, a private
    telemetry handle — runs it through the usual fault-point/watchdog/
    retry stack, and returns a picklable result: the experiment record,
    buffered narration, drained telemetry, and per-site fault-fire
    counts (for the parent's budget chaining).
    """
    from repro.resilience.campaign import CampaignConfig, _run_one

    experiment_id = task["experiment_id"]
    # A forked child inherits the parent's armed (parent-side) faults;
    # the task's spec is authoritative.
    FAULTS.reset()
    armed = {
        spec["site"]: FAULTS.arm(
            spec["site"],
            mode=spec["mode"],
            times=spec["times"],
            message=spec["message"],
        )
        for spec in task["faults"]
    }

    config = CampaignConfig(
        ids=[experiment_id],
        quick=task["quick"],
        timeout_s=task["timeout_s"],
        retry=task["retry"],
        save=False,
        profile=task["profile"],
    )
    obs = Telemetry() if task["telemetry"] else DISABLED
    if task["verify"] is None:
        verify_scope = nullcontext()
    else:
        from repro.verify.config import verification

        verify_scope = verification(task["verify"])
    from repro.trace.store import open_trace_store, trace_store_scope

    # Workers share the parent's store directory: each writer publishes
    # an object whole from its own tmp file, and an object's bytes are a
    # function of its key, so concurrent populate races are benign.
    traces_scope = trace_store_scope(open_trace_store(task["trace_store"]))

    reporter = _BufferReporter()
    record: ExperimentRecord | None = None
    interrupted = False
    # Process-level chaos sites fire before the experiment proper: a
    # crash or stall here is what the parent must recover from.
    fault_point("worker.slow", experiment_id=experiment_id)
    fault_point("worker.stall", experiment_id=experiment_id)
    fault_point("worker.crash", experiment_id=experiment_id)
    try:
        with verify_scope, telemetry_scope(obs), traces_scope:
            record = _run_one(config, experiment_id, task["runner"], reporter, obs)
    except KeyboardInterrupt:
        interrupted = True

    events: list[dict[str, Any]] = []
    metrics: dict[str, Any] = {}
    if obs.enabled:
        obs.bus.close_all()
        events = obs.bus.drain()
        metrics = obs.metrics.as_dict()
    return {
        "record": record.to_dict() if record is not None else None,
        # The profile payload rides beside the record dict, mirroring how
        # the store persists it beside (not inside) the result file.
        "profile": record.profile if record is not None else None,
        "messages": reporter.messages,
        "events": events,
        "metrics": metrics,
        "fired": {
            site: fault.triggered for site, fault in armed.items() if fault.triggered
        },
        "interrupted": interrupted,
    }


def _graft_events(
    obs: Telemetry,
    experiment_id: str,
    quick: bool,
    record: ExperimentRecord | None,
    events: list[dict[str, Any]],
) -> None:
    """Splice one worker's drained events into the parent bus.

    The worker's clock starts at its own bus creation, so its timestamps
    are rebased onto the parent clock at merge time; every worker lane
    (including lane 0) maps to a fresh parent lane, and the whole batch
    is wrapped in the same ``exp.<id>`` span the serial driver emits.
    Events are appended raw — the worker closed its spans before
    draining, so each lane arrives balanced and the parent bus's own
    span stacks stay untouched.
    """
    if not obs.enabled:
        return
    bus = obs.bus
    base = bus.now()
    lanes: dict[int, int] = {}

    def lane(worker_tid: int) -> int:
        if worker_tid not in lanes:
            lanes[worker_tid] = bus.new_tid()
        return lanes[worker_tid]

    exp_lane = lane(0)
    bus.events.append(
        {
            "ph": "B",
            "name": f"exp.{experiment_id}",
            "ts": base,
            "tid": exp_lane,
            "args": {"quick": quick, "worker": True},
        }
    )
    last = base
    for event in events:
        grafted = dict(event)
        grafted["ts"] = base + 1 + event.get("ts", 0)
        grafted["tid"] = lane(event.get("tid", 0))
        last = max(last, grafted["ts"])
        bus.events.append(grafted)
    end: dict[str, Any] = {
        "ph": "E",
        "name": f"exp.{experiment_id}",
        "ts": last + 1,
        "tid": exp_lane,
    }
    if record is not None:
        end["args"] = {"status": record.status, "attempts": record.attempts}
    else:
        end["args"] = {"status": "interrupted"}
    bus.events.append(end)


def run_parallel(
    config: "CampaignConfig",
    plan: list[tuple[int, str]],
    total: int,
    reporter: CampaignReporter,
    runner: Callable,
    obs: Telemetry,
) -> Iterator[tuple[int, ExperimentRecord]]:
    """The ``--jobs`` source of the campaign loop.

    Yields ``(index, record)`` for each ``(index, experiment id)`` of
    ``plan``, in plan order, each experiment run in its own process; a
    worker's ``interrupted`` report raises ``KeyboardInterrupt`` here,
    as Ctrl-C does in the serial source.
    """
    # Budget-chained fault handoff: parent-side sites stay armed here;
    # everything else ships to workers (see the module docstring).
    specs = FAULTS.export(exclude=PARENT_SITES)
    budgets = {spec["site"]: spec["times"] for spec in specs}
    for spec in specs:
        FAULTS.disarm(spec["site"])
    shipped: dict[int, list[str]] = {}

    def payload(job: Job) -> dict[str, Any]:
        faults = [
            {**spec, "times": budgets[spec["site"]]}
            for spec in specs
            if budgets[spec["site"]] > 0
        ]
        shipped[job.index] = [spec["site"] for spec in faults]
        return {
            "experiment_id": job.experiment_id,
            "quick": config.quick,
            "timeout_s": config.timeout_s,
            "retry": config.retry,
            "verify": config.verify,
            "telemetry": obs.enabled,
            "profile": config.profile,
            "trace_store": config.trace_store,
            "faults": faults,
            "runner": runner,
        }

    def on_crash(job: Job, kind: str) -> None:
        # The dead worker could not report its fault fires; if we shipped
        # it a budget for this site, the death *is* the fire — charge it.
        site = f"worker.{kind}"
        if budgets.get(site, 0) > 0 and site in shipped[job.index]:
            budgets[site] -= 1
            FAULTS.fired_total += 1
        reporter.worker_crash(
            job.experiment_id, job.crashes, config.max_worker_crashes, kind
        )
        if obs.enabled:
            obs.metrics.counter("supervisor.crashes").inc()
            if kind == "stall":
                obs.metrics.counter("supervisor.stalls").inc()
            obs.instant(
                "supervisor.crash",
                experiment=job.experiment_id,
                kind=kind,
                crashes=job.crashes,
            )

    def record_of(job: Job, kind: str, value: Any) -> ExperimentRecord:
        """Fold one outcome into the parent and return its record."""
        experiment_id = job.experiment_id
        elapsed_s = time.perf_counter() - job.started
        if kind == "quarantined":
            reporter.quarantine(experiment_id, job.crashes)
            if obs.enabled:
                obs.metrics.counter("supervisor.quarantined").inc()
                obs.instant(
                    "supervisor.quarantine",
                    experiment=experiment_id,
                    crashes=job.crashes,
                    kind=value,
                )
            return ExperimentRecord.from_error(
                experiment_id,
                WorkerCrashError(
                    f"worker process died {job.crashes} time(s) running this "
                    "experiment; quarantined",
                    experiment_id=experiment_id,
                    crashes=job.crashes,
                    kind=value,
                ),
                elapsed_s,
                attempts=job.attempts,
            )
        if kind == "failed":
            exc, text = value
            record = ExperimentRecord.from_error(
                experiment_id, as_experiment_error(exc, experiment_id), elapsed_s
            )
            record.error["traceback"] = text
            return record
        for site, count in value["fired"].items():
            if site in budgets:
                budgets[site] = max(0, budgets[site] - count)
            # Mirror the serial invariant: fired_total counts every
            # injected fire in the campaign, wherever it ran.
            FAULTS.fired_total += count
        for method, message in value["messages"]:
            getattr(reporter, method)(message)
        record = None
        if not value["interrupted"]:
            record = ExperimentRecord.from_dict(value["record"])
            record.profile = value["profile"]
        _graft_events(obs, experiment_id, config.quick, record, value["events"])
        if value["metrics"]:
            obs.metrics.merge_payload(value["metrics"])
        if record is None:
            raise KeyboardInterrupt(f"{experiment_id} was interrupted")
        return record

    jobs = [Job(index, experiment_id) for index, experiment_id in plan]
    outcomes = run_jobs(
        jobs,
        _execute_experiment,
        payload,
        max_jobs=config.jobs,
        max_crashes=config.max_worker_crashes,
        stall_timeout_s=config.stall_timeout_s,
        # Budgets drain in plan order, as in a serial run, only if the
        # experiments that may spend them run one at a time.
        solo=lambda: any(budgets.values()),
        on_crash=on_crash,
    )
    try:
        for job, kind, value in outcomes:
            reporter.start_experiment(job.experiment_id, job.index, total)
            yield job.index, record_of(job, kind, value)
    finally:
        outcomes.close()
        crashes = sum(job.crashes for job in jobs)
        if obs.enabled and crashes:
            obs.metrics.gauge("supervisor.crashes_total").set(crashes)
