"""Campaign progress reporting through the ``repro`` logging namespace.

The campaign driver used to narrate with bare ``print()`` — impossible
to silence, capture, or redirect through standard tooling.  Everything
now flows through the ``repro.campaign`` logger:

* default verbosity (0) reproduces the previous output byte-for-byte on
  the campaign's ``out`` stream (tables, retry notes, completion lines);
* ``--verbose`` (1) additionally emits DEBUG detail — per-experiment
  telemetry stats, checkpoint latencies;
* ``--quiet`` (-1) silences the narration entirely; errors still reach
  the ``err`` stream and the final summary is always printed (it is the
  campaign's primary artifact, not narration).

The reporter also tracks per-experiment wall clock and reports progress
with an ETA extrapolated from the mean of completed experiments.

Handlers are attached per campaign and removed on ``close()``, and every
record a reporter emits is stamped with its reporter's identity so each
handler only accepts its own campaign's records.  Concurrent *live*
campaigns (``--jobs`` workers, the test suite's dozens of runs) therefore
never cross streams or duplicate each other's narration; the logger
itself does not propagate to the root logger, but library users who want
the records can attach their own handler to
``logging.getLogger("repro.campaign")`` before running a campaign —
unstamped third-party records pass every reporter's filter.
"""

from __future__ import annotations

import logging
from typing import TextIO

LOGGER_NAME = "repro.campaign"

logger = logging.getLogger(LOGGER_NAME)
logger.setLevel(logging.DEBUG)
logger.propagate = False


class _BelowWarning(logging.Filter):
    def filter(self, record: logging.LogRecord) -> bool:
        return record.levelno < logging.WARNING


class _OwnedRecords(logging.Filter):
    """Accept only records stamped by one reporter (or left unstamped).

    The ``repro.campaign`` logger is module-level shared state; two live
    reporters would otherwise each receive the other's records through
    their own handlers.  Records carry their emitting reporter's token in
    ``record.campaign``; unstamped records (library users logging to the
    namespace directly) reach every live reporter.
    """

    def __init__(self, token: object) -> None:
        super().__init__()
        self._token = token

    def filter(self, record: logging.LogRecord) -> bool:
        owner = getattr(record, "campaign", None)
        return owner is None or owner is self._token


def _out_level(verbosity: int) -> int:
    if verbosity < 0:
        return logging.WARNING  # nothing below WARNING goes to out
    if verbosity > 0:
        return logging.DEBUG
    return logging.INFO


class CampaignReporter:
    """Routes one campaign's narration through ``repro.campaign``.

    ``out`` receives INFO/DEBUG narration (gated by ``verbosity``);
    ``err`` receives WARNING and above.  ``always()`` bypasses the
    verbosity gate for the campaign's primary outputs (the summary
    table, the final verdict).
    """

    def __init__(self, out: TextIO, err: TextIO, verbosity: int = 0) -> None:
        self.out = out
        self.err = err
        self.verbosity = verbosity
        self._elapsed: list[float] = []
        #: Identity stamped on every record this reporter emits; the
        #: handlers' ``_OwnedRecords`` filter matches on it.
        self._token = object()
        self._extra = {"campaign": self._token}
        formatter = logging.Formatter("%(message)s")
        self._out_handler = logging.StreamHandler(out)
        self._out_handler.setLevel(_out_level(verbosity))
        self._out_handler.addFilter(_BelowWarning())
        self._out_handler.addFilter(_OwnedRecords(self._token))
        self._out_handler.setFormatter(formatter)
        self._err_handler = logging.StreamHandler(err)
        self._err_handler.setLevel(logging.WARNING)
        self._err_handler.addFilter(_OwnedRecords(self._token))
        self._err_handler.setFormatter(formatter)
        logger.addHandler(self._out_handler)
        logger.addHandler(self._err_handler)

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------
    def close(self) -> None:
        for handler in (self._out_handler, self._err_handler):
            logger.removeHandler(handler)
            handler.flush()

    def __enter__(self) -> "CampaignReporter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Levels
    # ------------------------------------------------------------------
    def info(self, message: str) -> None:
        """Default narration (silenced by --quiet)."""
        logger.info(message, extra=self._extra)

    def detail(self, message: str) -> None:
        """--verbose-only detail, visually set off from the narration."""
        logger.debug("· %s", message, extra=self._extra)

    def error(self, message: str) -> None:
        """Failure reporting; always reaches the err stream."""
        logger.error(message, extra=self._extra)

    def always(self, message: str) -> None:
        """The campaign's primary output: printed even under --quiet."""
        print(message, file=self.out)

    # ------------------------------------------------------------------
    # Lint narration
    # ------------------------------------------------------------------
    def lint_findings(self, diagnostics, summary: str) -> None:
        """Narrate a lint report through the campaign logger.

        ``diagnostics`` is any iterable of objects with ``severity``
        (stringifying to ``"error"``/``"warning"``/``"info"``) and
        ``render()`` — kept duck-typed so ``repro.obs`` does not import
        ``repro.analysis``.  Errors always reach the err stream;
        warnings are ordinary narration; info notes are --verbose
        detail.  The summary line is a primary output and is printed
        even under --quiet.
        """
        for diagnostic in diagnostics:
            severity = str(diagnostic.severity)
            if severity == "error":
                self.error(diagnostic.render())
            elif severity == "warning":
                self.info(diagnostic.render())
            else:
                self.detail(diagnostic.render())
        self.always(summary)

    # ------------------------------------------------------------------
    # Doctor narration (run-store audit and repair)
    # ------------------------------------------------------------------
    def doctor_findings(self, findings, summary: str) -> None:
        """Narrate a ``repro-doctor`` audit through the campaign logger.

        Same duck-typed contract as :meth:`lint_findings` — objects with
        ``severity`` and ``render()`` — so ``repro.obs`` does not import
        ``repro.resilience.doctor``.
        """
        self.lint_findings(findings, summary)

    # ------------------------------------------------------------------
    # Supervision (worker crash recovery, quarantine, circuit breaker)
    # ------------------------------------------------------------------
    def worker_crash(
        self, experiment_id: str, crashes: int, limit: int, kind: str = "crash"
    ) -> None:
        """The worker process running an experiment died (or stalled and
        was killed); that experiment is resubmitted or quarantined."""
        what = "stalled and was killed" if kind == "stall" else "crashed"
        self.error(
            f"worker {what} running {experiment_id} (death {crashes}/{limit})"
        )

    def quarantine(self, experiment_id: str, crashes: int) -> None:
        """A poison job hit the crash bound and is being skipped."""
        self.error(
            f"{experiment_id} quarantined after {crashes} worker death(s); "
            "recorded as worker-crash and skipped (--resume retries it)"
        )

    def circuit_breaker(self, failures: int, limit: int) -> None:
        """--max-failures tripped; the campaign stops dispatching."""
        self.error(
            f"circuit breaker: {failures} experiment(s) failed "
            f"(--max-failures {limit}); stopping — remaining experiments "
            "stay pending"
        )

    def jobs_downgrade(self, requested: int, cpus: int) -> None:
        """--jobs asked for workers the host cannot overlap; running
        serial instead (manifests are identical either way)."""
        self.info(
            f"--jobs {requested} requested but only {cpus} CPU(s) are "
            "available; running serially (worker processes cannot overlap "
            "compute here and their overhead would slow the campaign — "
            "force them with --force-parallel)"
        )

    # ------------------------------------------------------------------
    # Progress
    # ------------------------------------------------------------------
    def start_experiment(self, experiment_id: str, index: int, total: int) -> None:
        self.detail(f"[{index}/{total}] {experiment_id} starting")

    def finish_experiment(
        self, experiment_id: str, status: str, elapsed_s: float, index: int, total: int
    ) -> None:
        """Progress line with wall clock and an ETA for the remainder."""
        self._elapsed.append(elapsed_s)
        remaining = total - index
        text = f"[{index}/{total}] {experiment_id} {status} in {elapsed_s:.1f}s"
        if remaining > 0 and self._elapsed:
            eta = remaining * (sum(self._elapsed) / len(self._elapsed))
            text += f" — ETA {eta:.0f}s for {remaining} more"
        self.info(text)
