"""Deterministic fault injection at named sites.

The experiment stack calls :func:`fault_point` at a handful of named
sites (``sim.run``, ``exp.before``, ``checkpoint.write``, ...).  In
normal operation those calls are no-ops costing one dict lookup.  A test
— or ``repro-experiments --inject-fault`` — arms a fault at a site and
the next ``times`` visits raise, deterministically, with no randomness
or clocks involved.  That is what lets the test suite *prove* the retry,
graceful-degradation, checkpoint, and resume paths work.

Modes
-----
``fail``
    Raise :class:`FaultInjected` (transient, so bounded retry kicks in).
``fail-hard``
    Raise :class:`FaultInjected` marked non-transient (never retried).
``timeout``
    Raise :class:`ExperimentTimeout`, simulating the watchdog firing.
``interrupt``
    Raise ``KeyboardInterrupt``, simulating Ctrl-C at that exact site.

Process-level chaos sites
-------------------------
The ``worker.*`` sites are different in kind: instead of raising, they
misbehave at the *process* level, exercising the ``--jobs`` campaign
executor (:mod:`repro.resilience.parallel`).  They only fire inside
``--jobs`` worker processes (serial campaigns never visit them), and
the ``mode`` field is ignored — the site name determines the behaviour:

``worker.crash``
    ``os._exit`` the worker immediately (a segfault/OOM-kill stand-in);
    the parent sees the process exit without a result, and resubmits or
    quarantines that experiment.
``worker.stall``
    Stop the worker's beats and sleep, wedged, until the parent's stall
    check SIGKILLs it (a bounded backstop exit keeps detection-disabled
    runs from hanging forever).
``worker.slow``
    Sleep ``WORKER_SLOW_S`` and continue normally — latency injection
    for completion order and ETA behaviour, not a failure.

Disk fault sites
----------------
The ``io.*`` sites exercise the object stores' one write helper,
:func:`repro.resilience.checkpoint.atomic_write` (trace containers
visit only ``io.enospc``); like the ``worker.*`` sites, the site name
determines the behaviour and ``mode`` is ignored:

``io.enospc``
    Raise ``OSError(ENOSPC)`` inside the write, simulating a full disk;
    the store reports it as a transient ``CheckpointError``.
``io.fsync-fail``
    Raise ``OSError(EIO)`` at the fsync point — the write appeared to
    succeed but durability could not be confirmed.
``io.torn-write``
    The writer leaves a *torn* file (a prefix of the new content) at
    the final path and raises, simulating a crash mid-write on a
    non-atomic filesystem.  The torn object fails its checksum, so it
    reads as missing and ``--resume`` recomputes it.
``io.corrupt``
    A byte of the just-published file is flipped *silently* — the
    writer believes the write succeeded.  Bit rot; the object's
    checksum catches it on the next read.
"""

from __future__ import annotations

import errno
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Iterator

from repro.resilience.errors import ConfigError, ExperimentTimeout, FaultInjected

#: Sites the stack instruments; kept here so tests and ``--inject-fault``
#: can validate a spec before arming it.
KNOWN_SITES = (
    "sim.run",            # Simulator.run, before the program executes
    "exp.before",         # campaign driver, before an experiment starts
    "exp.version",        # runners.run_versions, before each program version
    "checkpoint.write",   # checkpoint layer, after temp write / before rename
    "verify.oracle",      # verification oracles, on every oracle check
    "thread.proc",        # guarded execution, before each thread proc runs
    "worker.crash",       # --jobs worker, before the experiment: die outright
    "worker.stall",       # --jobs worker: wedge until the stall detector kills us
    "worker.slow",        # --jobs worker: sleep, then continue (latency injection)
    "io.enospc",          # run store writes: OSError(ENOSPC), disk full
    "io.fsync-fail",      # run store writes: OSError(EIO) at the fsync point
    "io.torn-write",      # run store writes: torn file at the final path, then raise
    "io.corrupt",         # run store writes: silent byte flip after publishing
)

#: Injected ``worker.slow`` sleep; short enough for tests, long enough
#: to reorder completions against healthy workers.
WORKER_SLOW_S = 0.25

#: Exit code a worker uses when an injected ``worker.crash`` fires, and
#: when a stalled worker gives up waiting to be killed.
WORKER_CRASH_EXIT = 113

#: How long an injected ``worker.stall`` stays wedged before exiting on
#: its own.  The parent's stall check kills the worker long before
#: this; the backstop only bounds test and CI hangs when stall detection
#: is disabled.
STALL_BACKSTOP_S = 30.0

MODES = ("fail", "fail-hard", "timeout", "interrupt")


@dataclass
class ArmedFault:
    """One armed failure: fire at ``site`` for the next ``times`` visits."""

    site: str
    mode: str = "fail"
    times: int = 1
    message: str = ""
    triggered: int = field(default=0, init=False)

    def fire(self, **context: Any) -> None:
        message = self.message or f"injected {self.mode} at {self.site}"
        if self.site == "worker.crash":
            os._exit(WORKER_CRASH_EXIT)
        if self.site == "worker.stall":
            from repro.resilience.parallel import stop_beats

            stop_beats()
            time.sleep(STALL_BACKSTOP_S)  # wedged: waiting for the SIGKILL
            os._exit(WORKER_CRASH_EXIT)  # backstop when detection is off
        if self.site == "worker.slow":
            time.sleep(WORKER_SLOW_S)
            return
        if self.site == "io.enospc":
            raise OSError(
                errno.ENOSPC, self.message or "injected: no space left on device"
            )
        if self.site == "io.fsync-fail":
            raise OSError(errno.EIO, self.message or "injected: fsync failed")
        if self.mode == "interrupt":
            raise KeyboardInterrupt(message)
        if self.mode == "timeout":
            raise ExperimentTimeout(message, site=self.site, **context)
        transient = self.mode == "fail"
        raise FaultInjected(
            message, site=self.site, transient=transient, **context
        )


class FaultInjector:
    """Registry of armed faults, consulted by every :func:`fault_point`."""

    def __init__(self) -> None:
        self._armed: dict[str, ArmedFault] = {}
        #: Faults actually fired over the injector's lifetime (survives
        #: :meth:`reset`); the campaign exports it as a gauge.
        self.fired_total = 0

    def arm(
        self,
        site: str,
        mode: str = "fail",
        times: int = 1,
        message: str = "",
    ) -> ArmedFault:
        """Arm ``site`` to raise on its next ``times`` visits."""
        if mode not in MODES:
            raise ConfigError(
                f"unknown fault mode {mode!r}; choose from {', '.join(MODES)}",
                field="mode",
            )
        if times < 1:
            raise ConfigError(
                f"fault times must be >= 1, got {times}", field="times"
            )
        fault = ArmedFault(site=site, mode=mode, times=times, message=message)
        self._armed[site] = fault
        return fault

    def arm_from_spec(self, spec: str) -> ArmedFault:
        """Arm from a CLI spec ``site[:mode[:times]]``.

        e.g. ``sim.run:fail:2`` fails the next two simulations,
        ``exp.before:interrupt`` simulates Ctrl-C before the next
        experiment.
        """
        parts = spec.split(":")
        if not parts[0]:
            raise ConfigError(f"empty fault site in {spec!r}", field="site")
        site = parts[0]
        mode = parts[1] if len(parts) > 1 and parts[1] else "fail"
        try:
            times = int(parts[2]) if len(parts) > 2 else 1
        except ValueError:
            raise ConfigError(
                f"fault times must be an integer in {spec!r}", field="times"
            ) from None
        if site not in KNOWN_SITES:
            raise ConfigError(
                f"unknown fault site {site!r}; choose from "
                f"{', '.join(KNOWN_SITES)}",
                field="site",
            )
        return self.arm(site, mode=mode, times=times)

    def disarm(self, site: str) -> None:
        self._armed.pop(site, None)

    def export(self, exclude: tuple[str, ...] = ()) -> list[dict[str, Any]]:
        """Picklable specs of the currently armed faults.

        The parallel campaign executor ships these to worker processes
        (minus ``exclude``, the sites that fire in the parent) so an
        armed fault behaves identically whether the experiment runs
        in-process or in a worker.
        """
        return [
            {
                "site": fault.site,
                "mode": fault.mode,
                "times": fault.times,
                "message": fault.message,
            }
            for fault in self._armed.values()
            if fault.site not in exclude
        ]

    def reset(self) -> None:
        """Disarm everything (tests call this between cases)."""
        self._armed.clear()

    def armed(self, site: str) -> ArmedFault | None:
        return self._armed.get(site)

    def fire(self, site: str, **context: Any) -> None:
        """Raise if a fault is armed at ``site``; otherwise no-op."""
        fault = self._armed.get(site)
        if fault is None or fault.times <= 0:
            return
        fault.times -= 1
        fault.triggered += 1
        self.fired_total += 1
        if fault.times <= 0:
            self._armed.pop(site, None)
        fault.fire(**context)

    @contextmanager
    def injected(
        self, site: str, mode: str = "fail", times: int = 1
    ) -> Iterator[ArmedFault]:
        """Arm a fault for the duration of a ``with`` block."""
        fault = self.arm(site, mode=mode, times=times)
        try:
            yield fault
        finally:
            if self._armed.get(site) is fault:
                self._armed.pop(site)


#: The process-wide injector the instrumented sites consult.
FAULTS = FaultInjector()


def fault_point(site: str, **context: Any) -> None:
    """Hook called by instrumented code; raises only when armed."""
    FAULTS.fire(site, **context)
