"""Guarded execution: a thread package that degrades instead of corrupting.

Three failure modes of the bare package become structured, recoverable
events here:

* **Bad hint vectors.**  ``th_fork`` validates hints before they reach
  the bin hash: non-integer, negative, out-of-range (beyond the
  simulated address space's high-water mark), or gap-ordered hints
  quarantine the thread into the fallback (unhinted) bin and record a
  :class:`~repro.resilience.errors.HintError` — the hash table is never
  fed garbage coordinates.  ``strict_hints`` raises instead.
* **Runaway thread procs.**  A per-thread step budget
  (``thread_budget``, counted in bytecode line events via
  ``sys.settrace``) interrupts a looping proc with a
  :class:`~repro.resilience.errors.ThreadBudgetError` naming the thread,
  so one bad proc cannot hang a whole campaign.
* **Crashing thread procs.**  Exceptions escaping a proc are captured as
  :class:`~repro.resilience.errors.ThreadProcError` records and the bin
  sweep continues — the same graceful-degradation contract
  ``resilience.campaign`` gives whole experiments.

``fault_point("thread.proc")`` fires before every proc so tests (and
``--inject-fault thread.proc``) can prove the capture path works.
"""

from __future__ import annotations

import gc
import sys
from typing import Any, Callable

from repro.core.hints import HintVector, MAX_HINTS
from repro.core.package import ThreadPackage
from repro.core.thread import ThreadGroup, ThreadSpec
from repro.resilience.errors import (
    HintError,
    ThreadBudgetError,
    ThreadProcError,
    VerificationError,
)
from repro.resilience.faults import fault_point


def _describe(func: Callable, arg1: Any, arg2: Any) -> str:
    name = getattr(func, "__name__", repr(func))
    return f"{name}({arg1!r}, {arg2!r})"


class GuardedThreadPackage(ThreadPackage):
    """A :class:`ThreadPackage` with validated forks and contained procs.

    Parameters (beyond the base package's)
    --------------------------------------
    thread_budget:
        Maximum bytecode line events one thread proc may execute; 0
        disables the budget.  Enforced with a per-dispatch trace hook, so
        it is meant for verification runs, not benchmarks.
    max_address:
        Upper bound for valid hint addresses.  Defaults to the simulated
        address space's high-water mark at fork time (hints must point at
        allocated data), or unbounded when running untraced.
    strict_hints:
        Raise :class:`HintError` at ``th_fork`` instead of quarantining.
    """

    def __init__(
        self,
        *args,
        thread_budget: int = 0,
        max_address: int | None = None,
        strict_hints: bool = False,
        **kwargs,
    ) -> None:
        if thread_budget < 0:
            raise ValueError(
                f"thread_budget must be non-negative, got {thread_budget}"
            )
        super().__init__(*args, **kwargs)
        self.thread_budget = thread_budget
        self.max_address = max_address
        self.strict_hints = strict_hints
        self.hint_errors: list[HintError] = []
        self.proc_errors: list[ThreadProcError] = []
        self.budget_errors: list[ThreadBudgetError] = []
        self.quarantined = 0

    # ------------------------------------------------------------------
    # Hint validation
    # ------------------------------------------------------------------
    def _address_limit(self) -> int | None:
        if self.max_address is not None:
            return self.max_address
        if self.space is not None:
            return self.space.high_water_mark
        return None

    def _validate_hints(
        self, hints: tuple, func: Callable, arg1: Any, arg2: Any
    ) -> HintError | None:
        """The structured problem with ``hints``, or ``None`` if clean."""
        thread = _describe(func, arg1, arg2)
        for position, hint in enumerate(hints, 1):
            if isinstance(hint, bool) or not isinstance(hint, int):
                return HintError(
                    f"hint{position} is {hint!r}, not an address",
                    invariant="hints are addresses",
                    thread=thread,
                )
            if hint < 0:
                return HintError(
                    f"hint{position} is negative ({hint})",
                    invariant="hints are non-negative",
                    thread=thread,
                )
        limit = self._address_limit()
        if limit is not None:
            for position, hint in enumerate(hints, 1):
                if hint >= limit:
                    return HintError(
                        f"hint{position} {hint:#x} is beyond the simulated "
                        f"address space (high water {limit:#x})",
                        invariant="hints are in-range addresses",
                        thread=thread,
                    )
        try:
            HintVector(*hints)
        except ValueError as exc:
            error = HintError(
                str(exc),
                invariant="hints fill leading slots first",
                thread=thread,
            )
            error.__cause__ = exc
            return error
        return None

    # ------------------------------------------------------------------
    # Forking
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
        """``th_fork`` with hint validation and quarantine.

        A thread with a bad hint vector still runs — in the fallback
        (unhinted) bin, with a :class:`HintError` recorded in
        :attr:`hint_errors` — instead of corrupting the bin hash or
        being dropped.
        """
        error = self._validate_hints((hint1, hint2, hint3), func, arg1, arg2)
        if error is not None:
            if self.strict_hints:
                raise error
            self.hint_errors.append(error)
            self.quarantined += 1
            if self.obs.enabled:
                self.obs.bus.instant(
                    "sched.hint_quarantine",
                    tid=self._obs_tid,
                    thread=error.context().get("thread"),
                    message=error.message,
                )
                self.obs.metrics.counter("sched.hints_quarantined").inc()
            hint1 = hint2 = hint3 = 0
        self._fork_impl(func, arg1, arg2, hint1, hint2, hint3)

    def fork_hinted(
        self,
        func: Callable[[Any, Any], Any],
        arg1: Any = None,
        arg2: Any = None,
        hints: tuple[int, ...] = (),
    ) -> None:
        """Fork with a hint *sequence* of any declared length.

        More than :data:`~repro.core.hints.MAX_HINTS` hints raises a
        structured :class:`HintError` — silently truncating would change
        the thread's bin.  Shorter sequences are zero-filled, as in the
        paper.
        """
        hints = tuple(hints)
        if len(hints) > MAX_HINTS:
            raise HintError(
                f"{len(hints)} hints supplied but th_fork takes at most "
                f"{MAX_HINTS}; refusing to truncate {hints!r}",
                invariant="at most MAX_HINTS hints",
                thread=_describe(func, arg1, arg2),
            )
        padded = hints + (0,) * (MAX_HINTS - len(hints))
        self.th_fork(func, arg1, arg2, *padded)

    # ------------------------------------------------------------------
    # Contained dispatch
    # ------------------------------------------------------------------
    def _invoke(self, group: ThreadGroup, index: int, spec: ThreadSpec):
        thread = _describe(spec.func, spec.arg1, spec.arg2)
        try:
            fault_point("thread.proc", thread=thread)
            if self.thread_budget:
                return self._run_budgeted(spec, thread)
            return spec.run()
        except (KeyboardInterrupt, SystemExit):
            raise
        except ThreadBudgetError as exc:
            self.budget_errors.append(exc)
        except VerificationError:
            raise  # oracle violations are not thread failures
        except Exception as exc:
            error = ThreadProcError(
                f"{type(exc).__name__}: {exc}",
                invariant="thread procs return",
                thread=thread,
            )
            error.__cause__ = exc
            self.proc_errors.append(error)
        return None

    def _run_budgeted(self, spec: ThreadSpec, thread: str):
        """Run one proc under a line-event budget (stops infinite loops)."""
        budget = self.thread_budget
        steps = 0

        def tracer(frame, event, arg):
            nonlocal steps
            if event == "line":
                steps += 1
                if steps > budget:
                    raise ThreadBudgetError(
                        f"thread exceeded its budget of {budget} steps",
                        invariant="threads terminate within budget",
                        thread=thread,
                    )
            return tracer

        if self.recorder is not None:
            # The budget counts line events in every nested frame, the
            # cache kernel's included: feed the references buffered so
            # far now, so a threshold flush inside this proc cannot
            # charge it for earlier threads' work.
            self.recorder.drain()
        # A stop raised inside a gc callback is swallowed ("Exception
        # ignored"), and CPython drops a tracer that raised, so the proc
        # would run on unbudgeted: no collection runs inside the proc.
        collecting = gc.isenabled()
        gc.disable()
        previous = sys.gettrace()
        sys.settrace(tracer)
        try:
            return spec.run()
        finally:
            sys.settrace(previous)
            if collecting:
                gc.enable()

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    @property
    def fault_count(self) -> int:
        return (
            len(self.hint_errors)
            + len(self.proc_errors)
            + len(self.budget_errors)
        )

    def fault_report(self) -> list[dict]:
        """All recorded degradations as manifest-ready dicts."""
        report = []
        for kind, errors in (
            ("hint", self.hint_errors),
            ("proc", self.proc_errors),
            ("budget", self.budget_errors),
        ):
            for error in errors:
                entry = {"kind": kind, "message": error.message}
                entry.update(error.context())
                report.append(entry)
        return report


#: The name the issue tracker uses for the wrapper class.
GuardedScheduler = GuardedThreadPackage


def guarded_run(package: GuardedThreadPackage, keep: int = 0):
    """Run all scheduled threads, returning ``(stats, fault_report)``.

    The run always completes the bin sweep; everything that went wrong on
    the way is in the report (empty when the run was clean).
    """
    stats = package.th_run(keep)
    return stats, package.fault_report()
