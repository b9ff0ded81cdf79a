"""The durable campaign driver behind ``repro-experiments``.

Runs a list of experiments with the full resilience stack composed
around each one:

* an ``exp.before`` fault point (so tests and ``--inject-fault`` can
  target a specific experiment);
* a watchdog timeout around the attempt;
* bounded retry-with-backoff for transient failures;
* graceful degradation — a failing experiment is recorded in the run
  manifest with its classified error and the batch continues;
* atomic checkpointing after every experiment — one record object per
  experiment under ``runs/<run-id>/`` — so SIGINT (or a crash) at any
  instant leaves a resumable run.

``--resume <run-id>`` replays the stored rendering of every completed
experiment byte-for-byte (the simulator is deterministic, so stored and
recomputed tables are identical) and runs only what is missing,
including any experiment whose record no longer verifies.

``--jobs N`` runs each remaining experiment in its own worker process,
up to N at a time (see :mod:`repro.resilience.parallel`).  Either way
records reach one loop in plan order, which checkpoints and narrates
them, counts failures for ``--fail-fast`` and the circuit breaker, and
flushes the manifest on interrupt; so manifests, summaries, retries,
faults, and resume behave exactly as in a serial run.
"""

from __future__ import annotations

import os
import signal
import sys
import threading
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from typing import Callable, Iterator, TextIO

from repro.exp.registry import run_experiment
from repro.obs.config import telemetry_scope
from repro.obs.exporters import RunTelemetryWriter
from repro.obs.progress import CampaignReporter
from repro.obs.telemetry import DISABLED, Telemetry
from repro.resilience.checkpoint import ExperimentRecord, RunManifest, RunStore
from repro.resilience.errors import (
    CheckpointError,
    as_experiment_error,
    classify_error,
)
from repro.resilience.faults import FAULTS, fault_point
from repro.resilience.retry import RetryPolicy, call_with_retry, watchdog
from repro.util.tables import TextTable

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_INTERRUPTED = 130  # 128 + SIGINT, the shell convention

RULE = "=" * 72


@dataclass
class CampaignConfig:
    """Everything the CLI hands the driver for one invocation."""

    ids: list[str]
    quick: bool = False
    timeout_s: float = 0.0
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    runs_dir: str = "runs"
    run_id: str | None = None
    resume: str | None = None
    fail_fast: bool = False
    save: bool = True
    #: Runtime-verification oracles for every simulation in the campaign:
    #: ``True``/``False`` flip the process-wide switch for the campaign's
    #: duration; ``None`` leaves whatever the process already chose.
    verify: bool | None = None
    #: Narration level: 0 default, 1 ``--verbose`` (adds DEBUG detail),
    #: -1 ``--quiet`` (errors and the summary only).
    verbosity: int = 0
    #: Telemetry (``repro.obs``): ``True``/``False`` force it on or off;
    #: ``None`` enables it exactly when run artifacts are being saved —
    #: the exporters need a run directory to write into.
    telemetry: bool | None = None
    #: Locality profiling (``--profile``): attach a
    #: :class:`repro.obs.profile.LocalityProfiler` to every simulation
    #: the experiment runs and persist the merged payload as a
    #: ``<id>.profile.json`` artifact beside the result file.  Off by
    #: default — with no sidecar attached the cache kernel runs its
    #: uninstrumented ``access_data``, so disabled profiling is free.
    profile: bool = False
    #: Worker processes for the campaign (``--jobs``): 1 runs everything
    #: in-process; N > 1 runs each remaining experiment in its own worker
    #: process, up to N at a time, via :mod:`repro.resilience.parallel`,
    #: with results merged back in plan order so manifests and summaries
    #: match serial runs.  On a host with a single effective CPU workers
    #: cannot overlap any compute and their process overhead makes the
    #: campaign *slower* than serial, so ``jobs > 1`` auto-degrades to
    #: in-process runs there (narrated by the reporter; manifests are
    #: identical either way).
    jobs: int = 1
    #: Keep worker processes even when the host has a single effective
    #: CPU (suppresses the auto-degrade above).  Crash recovery is only
    #: exercised by real workers, so supervision tests and crash drills
    #: set this.
    force_parallel: bool = False
    #: Content-addressed trace store directory (``--trace-store``): every
    #: simulation in the campaign first consults the store and replays a
    #: stored reference stream when one matches; misses run live and
    #: populate the store.  ``None`` disables the store entirely.
    trace_store: str | None = None
    #: Campaign circuit breaker (``--max-failures``): stop dispatching
    #: once this many experiments ended not-passed this session; later
    #: experiments stay pending.  0 disables the breaker.
    max_failures: int = 0
    #: Worker deaths one experiment may cause before the ``--jobs``
    #: executor quarantines it (recorded as a ``worker-crash`` error and
    #: skipped; ``--resume`` retries it).  Only meaningful with --jobs.
    max_worker_crashes: int = 2
    #: Seconds without a beat from a worker after which it is declared
    #: stalled and SIGKILLed by the parent; 0 disables stall detection.
    #: Only meaningful with --jobs.
    stall_timeout_s: float = 0.0


def _effective_cpus() -> int:
    """CPUs actually available to this process (affinity-aware).

    Module-level so tests on constrained hosts can patch it; the
    auto-degrade decision in :func:`_run_campaign` is its only caller.
    """
    getter = getattr(os, "sched_getaffinity", None)
    if getter is not None:
        try:
            return len(getter(0)) or 1
        except OSError:
            pass
    return os.cpu_count() or 1


@contextmanager
def _sigint_raises() -> Iterator[None]:
    """Ensure SIGINT raises ``KeyboardInterrupt`` even if a caller
    replaced the default handler; no-op off the main thread."""
    if threading.current_thread() is not threading.main_thread():
        yield
        return
    previous = signal.signal(signal.SIGINT, signal.default_int_handler)
    try:
        yield
    finally:
        signal.signal(signal.SIGINT, previous)


def _prepare_manifest(
    config: CampaignConfig, store: RunStore, reporter: CampaignReporter
) -> RunManifest:
    """Create a fresh manifest, or reload and replay a resumed one."""
    if config.resume:
        manifest = store.load(config.resume)
        if manifest.corrupt:
            reporter.error(
                f"Run {manifest.run_id}: the stored record(s) of "
                f"{', '.join(manifest.corrupt)} are corrupt; treating them "
                "as missing and running them again."
            )
        if manifest.quick != config.quick:
            raise CheckpointError(
                f"run {manifest.run_id!r} was recorded with "
                f"quick={manifest.quick}; resume with the same flag so "
                "results stay comparable",
                path=str(store.plan_path(manifest.run_id)),
            )
        if config.ids and list(config.ids) != manifest.ids:
            raise CheckpointError(
                f"run {manifest.run_id!r} planned {', '.join(manifest.ids)}; "
                "resume without ids (or the same ids) to finish that plan",
                path=str(store.plan_path(manifest.run_id)),
            )
        manifest.interrupted = False
        # The report is rewritten from the verified objects, so a torn,
        # flipped or deleted manifest.json heals here.
        store.sweep_tmp(manifest.run_id)
        store.save(manifest)
        done = [i for i in manifest.ids if (r := manifest.records.get(i)) and r.is_final]
        reporter.info(
            f"Resuming run {manifest.run_id}: {len(done)} of "
            f"{len(manifest.ids)} experiments already recorded."
        )
        for experiment_id in done:
            record = manifest.records[experiment_id]
            reporter.info(f"\n{RULE}")
            reporter.info(record.rendered)
            reporter.info(f"({experiment_id} replayed from checkpoint)")
        return manifest
    if config.save:
        manifest = store.new_run(config.ids, config.quick, config.run_id)
        reporter.info(
            f"Run {manifest.run_id} -> {store.run_dir(manifest.run_id)}"
        )
        return manifest
    return RunManifest(
        run_id=config.run_id or "ephemeral", ids=list(config.ids), quick=config.quick
    )


def _run_one(
    config: CampaignConfig,
    experiment_id: str,
    runner: Callable,
    reporter: CampaignReporter,
    obs: Telemetry = DISABLED,
) -> ExperimentRecord:
    """One experiment through fault point, watchdog, and retry."""
    started = time.perf_counter()
    attempts = 1

    def _on_retry(attempt: int, exc: BaseException) -> None:
        nonlocal attempts
        attempts = attempt + 1
        reporter.info(
            f"  retrying {experiment_id} (attempt {attempt + 1}) after "
            f"{classify_error(exc)} error: {exc}"
        )
        if obs.enabled:
            obs.metrics.counter("campaign.retries").inc()
            obs.instant(
                "campaign.retry",
                experiment=experiment_id,
                attempt=attempt + 1,
                error=classify_error(exc),
            )

    collector = None
    profile_scope = nullcontext()
    if config.profile:
        from repro.obs.profile import ProfileCollector, collector_scope

        collector = ProfileCollector()
        profile_scope = collector_scope(collector)

    def _attempt():
        fault_point("exp.before", experiment_id=experiment_id)
        if collector is not None:
            # A retried attempt re-simulates from scratch; its profile
            # must not accumulate the aborted attempt's counts.
            collector.reset()
        return runner(experiment_id, quick=config.quick)

    try:
        with profile_scope, watchdog(
            config.timeout_s, experiment_id=experiment_id
        ):
            result, attempts = call_with_retry(
                _attempt, config.retry, on_retry=_on_retry
            )
        record = ExperimentRecord.from_result(
            result, time.perf_counter() - started, attempts
        )
        if collector is not None:
            record.profile = collector.payload(experiment_id)
        return record
    except (KeyboardInterrupt, SystemExit):
        raise
    except BaseException as exc:
        structured = as_experiment_error(exc, experiment_id)
        return ExperimentRecord.from_error(
            experiment_id, structured, time.perf_counter() - started, attempts
        )


def _run_serial(
    config: CampaignConfig,
    plan: list[tuple[int, str]],
    total: int,
    reporter: CampaignReporter,
    runner: Callable,
    obs: Telemetry,
) -> Iterator[tuple[int, ExperimentRecord]]:
    """The serial source of the campaign loop: ``(index, record)`` for
    each planned experiment, run in-process inside an ``exp.<id>`` span
    of the campaign's own bus."""
    for index, experiment_id in plan:
        reporter.start_experiment(experiment_id, index, total)
        if obs.enabled:
            obs.bus.begin(f"exp.{experiment_id}", quick=config.quick)
        try:
            record = _run_one(config, experiment_id, runner, reporter, obs)
        except KeyboardInterrupt:
            if obs.enabled:
                obs.bus.end(status="interrupted")
            raise
        if obs.enabled:
            obs.bus.end(status=record.status, attempts=record.attempts)
        yield index, record


def _emit_record(
    config: CampaignConfig,
    store: RunStore,
    manifest: RunManifest,
    reporter: CampaignReporter,
    obs: Telemetry,
    writer: RunTelemetryWriter | None,
    persist: bool,
    record: ExperimentRecord,
    index: int,
    total: int,
) -> None:
    """Checkpoint and narrate one finished experiment, in plan order,
    whichever source (serial or ``--jobs``) produced its record."""
    if persist:
        checkpoint_started = time.perf_counter()
        store.record(manifest, record)
        checkpoint_s = time.perf_counter() - checkpoint_started
        if obs.enabled:
            obs.metrics.histogram("checkpoint.write_seconds").observe(
                checkpoint_s
            )
        reporter.detail(
            f"checkpoint {record.experiment_id} written in "
            f"{checkpoint_s * 1000:.1f}ms"
        )
        if record.profile is not None:
            from repro.obs.profile import profile_artifact_name

            name = profile_artifact_name(record.experiment_id)
            store.record_artifact(manifest, name, record.profile)
            reporter.detail(f"profile artifact {name}.json written")
    else:
        manifest.records[record.experiment_id] = record
    if writer is not None:
        writer.flush()
        reporter.detail(
            f"telemetry flushed: {obs.bus.drained} events so far"
        )
    reporter.info(f"\n{RULE}")
    if record.status == "error":
        error = record.error or {}
        reporter.info(
            f"{record.experiment_id} ERROR [{error.get('category')}] "
            f"after {record.attempts} attempt(s): "
            f"{error.get('message')}"
        )
        reporter.info("(continuing with remaining experiments)")
    else:
        reporter.info(record.rendered)
        reporter.info(
            f"({record.experiment_id} completed in {record.elapsed_s:.1f}s)"
        )
    reporter.finish_experiment(
        record.experiment_id, record.status, record.elapsed_s, index, total
    )


def _summary_table(manifest: RunManifest) -> TextTable:
    table = TextTable(
        ["Experiment", "Status", "Checks", "Time(s)", "Attempts", "Error"],
        title="Campaign summary",
    )
    for experiment_id in manifest.ids:
        record = manifest.records.get(experiment_id)
        if record is None:
            table.add_row([experiment_id, "pending", "-", "-", "-", ""])
            continue
        passed = sum(1 for c in record.checks if c.get("passed"))
        checks = f"{passed}/{len(record.checks)}" if record.checks else "-"
        error = ""
        if record.error is not None:
            error = f"[{record.error['category']}] {record.error['message']}"
            if len(error) > 60:
                error = error[:57] + "..."
        table.add_row(
            [
                experiment_id,
                record.status,
                checks,
                f"{record.elapsed_s:.1f}",
                record.attempts,
                error,
            ]
        )
    return table


def run_campaign(
    config: CampaignConfig,
    out: TextIO | None = None,
    err: TextIO | None = None,
    runner: Callable = run_experiment,
) -> int:
    """Run (or resume) a campaign; returns the process exit code."""
    # Resolve the streams at call time so output capture (pytest capsys,
    # redirected stdout) sees the campaign's reporting.
    out = sys.stdout if out is None else out
    err = sys.stderr if err is None else err
    with CampaignReporter(out, err, config.verbosity) as reporter:
        return _run_campaign(config, reporter, runner)


def _run_campaign(
    config: CampaignConfig, reporter: CampaignReporter, runner: Callable
) -> int:
    store = RunStore(config.runs_dir)
    manifest = _prepare_manifest(config, store, reporter)
    persist = config.save or config.resume is not None

    obs_on = config.telemetry if config.telemetry is not None else persist
    obs = Telemetry() if obs_on else DISABLED
    writer = (
        RunTelemetryWriter(store.run_dir(manifest.run_id), obs)
        if obs_on and persist
        else None
    )
    if writer is not None:
        writer.metadata = {"run_id": manifest.run_id, "quick": config.quick}

    if config.verify is None:
        verify_scope = nullcontext()
    else:
        from repro.verify.config import verification

        verify_scope = verification(config.verify)
    from repro.trace.store import open_trace_store, trace_store_scope

    traces_scope = trace_store_scope(open_trace_store(config.trace_store))
    interrupted = False
    total = len(manifest.ids)
    jobs = config.jobs
    if jobs > 1 and not config.force_parallel:
        cpus = _effective_cpus()
        if cpus <= 1:
            # Workers on one CPU cannot overlap compute; their process
            # overhead makes the campaign strictly slower than serial
            # (the benchmark records the regression).  Degrade silently
            # in output terms: results and manifests are identical.
            reporter.jobs_downgrade(jobs, cpus)
            if obs.enabled:
                obs.instant(
                    "campaign.jobs_downgrade", requested=jobs, cpus=cpus
                )
            jobs = 1
    try:
        with _sigint_raises(), verify_scope, telemetry_scope(obs), traces_scope:
            remaining = manifest.remaining()
            plan = list(enumerate(remaining, total - len(remaining) + 1))
            if jobs > 1 and len(remaining) > 1:
                from repro.resilience.parallel import run_parallel

                source = run_parallel
            else:
                source = _run_serial
            records = source(config, plan, total, reporter, runner, obs)
            # The one campaign loop: serial and --jobs records alike are
            # checkpointed, counted and flushed here, in plan order.
            failures = 0
            try:
                for index, record in records:
                    _emit_record(
                        config,
                        store,
                        manifest,
                        reporter,
                        obs,
                        writer,
                        persist,
                        record,
                        index,
                        total,
                    )
                    if record.status != "passed":
                        failures += 1
                        if config.fail_fast:
                            break
                        if config.max_failures and failures >= config.max_failures:
                            # Circuit breaker: too much is going wrong to
                            # keep burning compute; the rest stay pending.
                            reporter.circuit_breaker(failures, config.max_failures)
                            if obs.enabled:
                                obs.instant(
                                    "campaign.circuit_breaker", failures=failures
                                )
                            break
            except KeyboardInterrupt:
                interrupted = True
                manifest.interrupted = True
                if persist:
                    store.save(manifest)
            finally:
                records.close()
    finally:
        if writer is not None:
            obs.metrics.gauge("faults.fired_total").set(FAULTS.fired_total)
            for status, count in manifest.counts().items():
                obs.metrics.gauge(f"campaign.{status}").set(count)
            writer.finalize()

    reporter.always(f"\n{RULE}")
    reporter.always(_summary_table(manifest).render())
    counts = manifest.counts()
    line = ", ".join(f"{v} {k}" for k, v in counts.items() if v)
    if interrupted:
        reporter.error(
            f"\nInterrupted — {line}. Manifest flushed; resume with:\n"
            f"  repro-experiments --runs-dir {config.runs_dir} "
            f"--resume {manifest.run_id}"
            + (" --quick" if config.quick else "")
        )
        return EXIT_INTERRUPTED
    if counts["failed"] or counts["error"] or counts["pending"]:
        by_status = {
            status: [
                i
                for i in manifest.ids
                if (r := manifest.records.get(i)) and r.status == status
            ]
            for status in ("failed", "error")
        }
        if by_status["failed"]:
            reporter.error(
                f"\nShape checks FAILED in: {', '.join(by_status['failed'])}"
            )
        if by_status["error"]:
            reporter.error(f"Errors in: {', '.join(by_status['error'])}")
        if counts["pending"]:
            reporter.error(f"Not run: {counts['pending']} experiment(s).")
        return EXIT_FAILED
    reporter.always("\nAll shape checks passed.")
    return EXIT_OK
