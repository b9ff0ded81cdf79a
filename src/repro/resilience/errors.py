"""Structured exception hierarchy for the whole reproduction.

Every failure the experiment stack can hit maps onto one of these types,
each carrying the context a campaign report needs (which experiment,
which machine model, which program version) instead of leaving it buried
in a traceback.  The hierarchy:

``ReproError``
    ├── ``ConfigError``       (also a ``ValueError``) — bad user input
    ├── ``SimulationError``   — a traced program blew up under the simulator
    │       └── ``FaultInjected`` — deterministic injected failure (transient)
    ├── ``VerificationError`` — a runtime-verification oracle found an
    │       │                   invariant violation (see ``repro.verify``)
    │       ├── ``HintError``         (also a ``ValueError``) — bad hint vector
    │       ├── ``ThreadBudgetError`` — a thread proc exceeded its budget
    │       └── ``ThreadProcError``   — a user thread proc raised
    ├── ``ExperimentError``   — an experiment failed outside the simulator
    │       ├── ``ExperimentTimeout`` — the watchdog fired
    │       └── ``WorkerCrashError``  — the worker process running the
    │                                   experiment died (classified
    │                                   ``worker-crash``; see
    │                                   ``repro.resilience.parallel``)
    └── ``CheckpointError``   — a stored object could not be read or written
            └── ``StoreCorruptionError`` — a stored object's bytes do not
                                  parse or match their checksum; fatal
                                  only for a run's ``plan.json``
                                  (classified ``corruption``; see
                                  ``repro-doctor``)

``ConfigError`` deliberately subclasses ``ValueError`` so the many
call sites (and tests) written against ``ValueError`` keep working while
gaining the structured ``field`` attribute.
"""

from __future__ import annotations

from typing import Any

#: Context keys rendered after the message, in this order.
_CONTEXT_KEYS = (
    "experiment_id",
    "machine",
    "program",
    "site",
    "field",
    "oracle",
    "invariant",
    "level",
    "thread",
    "crashes",
)


class ConfigWarning(UserWarning):
    """A configuration is accepted but deviates from the paper's model
    (e.g. a non-power-of-two block size forcing the division fallback)."""


class ReproError(Exception):
    """Base class for all structured errors in the reproduction.

    Keyword arguments name the context the failure happened in; they are
    stored as attributes and appended to ``str(exc)`` so a log line is
    self-describing.  ``transient`` marks failures worth retrying (the
    retry layer checks it via :func:`repro.resilience.retry.is_transient`).
    """

    def __init__(
        self,
        message: str,
        *,
        experiment_id: str | None = None,
        machine: str | None = None,
        program: str | None = None,
        site: str | None = None,
        field: str | None = None,
        transient: bool = False,
        **extra: Any,
    ) -> None:
        super().__init__(message)
        self.message = message
        self.experiment_id = experiment_id
        self.machine = machine
        self.program = program
        self.site = site
        self.field = field
        self.transient = transient
        self.extra = extra
        # Extra context (oracle, invariant, level, thread, ...) is also
        # exposed as attributes, mirroring the named keyword arguments.
        for key, value in extra.items():
            if not hasattr(self, key):
                setattr(self, key, value)

    def context(self) -> dict[str, Any]:
        """The non-empty context fields, for manifests and reports."""
        context = {
            key: value
            for key in _CONTEXT_KEYS
            if (value := getattr(self, key, None)) is not None
        }
        for key, value in self.extra.items():
            if key not in context and value is not None:
                context[key] = value
        return context

    def __str__(self) -> str:
        context = self.context()
        if not context:
            return self.message
        rendered = ", ".join(f"{k}={v}" for k, v in context.items())
        return f"{self.message} [{rendered}]"


class ConfigError(ReproError, ValueError):
    """Invalid configuration value (machine spec, cache geometry, CLI id).

    ``field`` names the offending parameter.  Subclasses ``ValueError``
    for compatibility with pre-existing ``except ValueError`` call sites.
    """


class SimulationError(ReproError):
    """A traced program raised inside :meth:`Simulator.run`."""


class FaultInjected(SimulationError):
    """A deterministic failure armed by the fault-injection harness.

    Transient by default, so the retry layer exercises its real path
    when the tests arm a fail-once fault.
    """

    def __init__(self, message: str, **context: Any) -> None:
        context.setdefault("transient", True)
        super().__init__(message, **context)


class VerificationError(ReproError):
    """A runtime-verification oracle detected an invariant violation.

    Raised by the ``repro.verify`` oracles (scheduler and cache) and by
    guarded execution.  ``oracle`` names the oracle, ``invariant`` the
    violated claim, ``level``/``thread`` the cache level or thread the
    violation was localised to.
    """


class HintError(VerificationError, ValueError):
    """A thread's scheduling hint vector is malformed.

    Too many hints, a negative or out-of-range address, or a gap in the
    hint ordering.  Guarded execution records these (quarantining the
    thread into the unhinted bin) instead of raising; strict call sites
    raise.  Subclasses ``ValueError`` so generic validation call sites
    keep working.
    """


class ThreadBudgetError(VerificationError):
    """A thread proc exceeded its per-thread execution budget.

    Raised by :class:`repro.verify.guarded.GuardedThreadPackage` when a
    runaway thread proc passes its step/reference budget, naming the
    thread instead of hanging the campaign.
    """


class ThreadProcError(VerificationError):
    """A user thread proc raised; recorded by guarded execution so the
    bin sweep can continue (graceful degradation)."""


class ExperimentError(ReproError):
    """An experiment failed outside the simulator proper."""


class ExperimentTimeout(ExperimentError):
    """The per-experiment watchdog fired (or a timeout fault was armed)."""

    def __init__(self, message: str, *, timeout_s: float | None = None, **context: Any) -> None:
        super().__init__(message, **context)
        self.timeout_s = timeout_s


class WorkerCrashError(ExperimentError):
    """The worker process running an experiment died outright.

    Built (parent-side) by the ``--jobs`` executor when the process
    running an experiment exits without a result — it segfaulted, was
    OOM-killed, exited via an injected ``worker.crash``, or was
    SIGKILLed by the stall check.  ``crashes`` counts how many times
    this experiment's process died; an experiment that reaches the
    quarantine bound is recorded with this error (classified
    ``worker-crash``) and skipped so the campaign can finish.  The
    status is not final: ``--resume`` retries quarantined experiments.
    """

    def __init__(
        self, message: str, *, crashes: int | None = None, **context: Any
    ) -> None:
        super().__init__(message, **context)
        self.crashes = crashes


class CheckpointError(ReproError):
    """A stored object (plan, record, report, trace) could not be read
    or written.

    A *read* failure (``OSError`` underneath) is transient — the disk
    hiccuped, the file may be fine — and is reported as such; it is
    never conflated with corruption (see
    :class:`StoreCorruptionError`).
    """

    def __init__(self, message: str, *, path: str | None = None, **context: Any) -> None:
        super().__init__(message, **context)
        self.path = path


class StoreCorruptionError(CheckpointError):
    """A stored object's bytes do not parse or match their checksum.

    A corrupt record is treated as missing and re-run, so this only
    escapes for a run's ``plan.json``, the one object that cannot be
    recomputed: the run cannot be resumed.  Classified ``corruption``
    so campaign summaries distinguish bad bytes from bad I/O.
    """


def classify_error(exc: BaseException) -> str:
    """A stable category label for manifests and summary tables."""
    if isinstance(exc, ExperimentTimeout):
        return "timeout"
    if isinstance(exc, ConfigError):
        return "config"
    if isinstance(exc, FaultInjected):
        return "fault"
    if isinstance(exc, VerificationError):
        return "verification"
    if isinstance(exc, SimulationError):
        return "simulation"
    if isinstance(exc, WorkerCrashError):
        return "worker-crash"
    if isinstance(exc, ExperimentError):
        return "experiment"
    if isinstance(exc, StoreCorruptionError):
        return "corruption"
    if isinstance(exc, CheckpointError):
        return "checkpoint"
    if isinstance(exc, KeyboardInterrupt):
        return "interrupted"
    return "unexpected"


def as_experiment_error(exc: BaseException, experiment_id: str) -> ReproError:
    """Coerce an arbitrary exception into the structured hierarchy.

    Structured errors pass through (gaining the experiment id if they
    lack one); anything else is wrapped in :class:`ExperimentError` with
    the original as ``__cause__``.
    """
    if isinstance(exc, ReproError):
        if exc.experiment_id is None:
            exc.experiment_id = experiment_id
        return exc
    wrapped = ExperimentError(
        f"{type(exc).__name__}: {exc}", experiment_id=experiment_id
    )
    wrapped.__cause__ = exc
    return wrapped
