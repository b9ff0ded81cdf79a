"""Resilience layer: structured errors, checkpoints, retries, fault injection.

Long simulation campaigns (``repro-experiments`` runs a dozen tables and
figures back to back) need to survive a single bad experiment, a hung
simulation, or an interrupted terminal without losing completed work.
This package provides the four pieces the experiment stack composes:

* :mod:`repro.resilience.errors` — the ``ReproError`` hierarchy carrying
  experiment/machine/program context instead of bare tracebacks;
* :mod:`repro.resilience.checkpoint` — the run store under
  ``runs/<run-id>/`` enabling ``repro-experiments --resume``: every
  plan, record and profile is an object written whole and sealed with
  its own checksum, and a corrupt object reads as missing and is
  recomputed; :mod:`repro.resilience.doctor` (``repro-doctor``)
  verifies, deletes and sweeps offline;
* :mod:`repro.resilience.retry` — bounded retry-with-backoff and a
  watchdog timeout for wedged experiments;
* :mod:`repro.resilience.faults` — a deterministic fault-injection
  harness that arms failures at named sites so the tests can prove the
  retry/degradation/resume paths actually work, including process-level
  chaos sites (``worker.crash``/``worker.stall``/``worker.slow``).

The campaign driver that ties them together lives in
:mod:`repro.resilience.campaign`, and its ``--jobs`` executor in
:mod:`repro.resilience.parallel`: one worker process per experiment,
each crash or stall charged to exactly that experiment, and poison-job
quarantine (``WorkerCrashError``, classified ``worker-crash``).  Both
are imported on demand by the CLI, not here, to keep this package
import-light for the low-level layers that only need the exception
types.
"""

from repro.resilience.checkpoint import ExperimentRecord, RunManifest, RunStore
from repro.resilience.errors import (
    CheckpointError,
    ConfigError,
    ExperimentError,
    ExperimentTimeout,
    FaultInjected,
    ReproError,
    SimulationError,
    StoreCorruptionError,
    WorkerCrashError,
    classify_error,
)
from repro.resilience.faults import FAULTS, FaultInjector, fault_point
from repro.resilience.retry import RetryPolicy, call_with_retry, watchdog

__all__ = [
    "CheckpointError",
    "ConfigError",
    "ExperimentError",
    "ExperimentRecord",
    "ExperimentTimeout",
    "FAULTS",
    "FaultInjected",
    "FaultInjector",
    "ReproError",
    "RetryPolicy",
    "RunManifest",
    "RunStore",
    "SimulationError",
    "StoreCorruptionError",
    "WorkerCrashError",
    "call_with_retry",
    "classify_error",
    "fault_point",
    "watchdog",
]
