"""Applying a rewrite plan to an opaque program, verifiably.

A registered program is a Python callable — there is no source to edit.
What there *is* is the fork sequence: every program the optimizer
handles is deterministic in its package-creation and ``th_fork`` order
(that determinism is what makes capture-based linting sound in the
first place).  So a plan is applied by replay: :func:`apply_plan` hooks
the context's package factory and the ``th_fork`` of the packages it
makes, counting packages as they are made and forks as they happen,
and at each coordinate named by a rewrite it *first verifies the
program produced exactly the plan's ``before`` value*, then substitutes
``after``.  Any mismatch — the program forked differently than the
capture said, a rewrite was never reached — raises
:class:`OptimizationError` instead of silently applying a stale plan.

The same hooks give :func:`strip_hints`, the unhinted twin the
differential check compares trace statistics against.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable

from repro.core.scheduler import default_block_size
from repro.opt.plan import Rewrite, RewritePlan
from repro.resilience.errors import ReproError


class OptimizationError(ReproError):
    """The program diverged from the plan being applied to it (stale
    plan, nondeterministic fork order, or a rewrite never reached)."""


class _ForkHook:
    """What a wrapper does at each package creation and fork."""

    def wants_package(self, index: int) -> bool:
        raise NotImplementedError

    def on_package(
        self, index: int, declared_block_size: int, l2_size: int
    ) -> int | None:
        """Return a replacement block size, or ``None`` to keep it."""
        return None

    def on_fork(
        self,
        package: int,
        fork: int,
        hints: tuple[int, int, int],
        after: tuple[int, ...] | None,
    ) -> tuple[tuple[int, int, int], tuple[int, ...] | None]:
        return hints, after

    def finish(self) -> None:
        """Called after the program returns; raise if work is left."""


def _hooked_fork(fork: Callable[..., Any], hook: _ForkHook, package: int):
    """A package's bound ``th_fork`` with ``hook.on_fork`` applied to the
    hints and 'after' edges of every call."""
    forks = itertools.count()

    def th_fork(
        func: Callable[[Any, Any], Any],
        arg1: Any = None,
        arg2: Any = None,
        hint1: int = 0,
        hint2: int = 0,
        hint3: int = 0,
        *rest: Any,
        **kwargs: Any,
    ) -> Any:
        after: tuple[int, ...] | None = None
        after_in_kwargs = "after" in kwargs
        if after_in_kwargs:
            after = tuple(kwargs["after"])
        elif rest:
            after = tuple(rest[0])
        hints, new_after = hook.on_fork(
            package, next(forks), (hint1, hint2, hint3), after
        )
        if new_after is not None:
            if after_in_kwargs:
                kwargs = dict(kwargs, after=new_after)
            elif rest:
                rest = (new_after,) + rest[1:]
            else:
                kwargs = dict(kwargs, after=new_after)
        return fork(func, arg1, arg2, *hints, *rest, **kwargs)

    return th_fork


def _wrap(program: Callable, hook_factory: Callable[[], _ForkHook]):
    """A program wrapper running ``program`` under a fresh hook.

    The hook sees every package the context makes — through its one
    package factory, ``build_package`` — and every ``th_fork`` of the
    packages it wants.  A fresh hook per call keeps the wrapper
    reentrant — the differential check runs it several times
    (unhinted, hinted, verified)."""

    def wrapped(ctx: Any) -> Any:
        hook = hook_factory()
        build = ctx.build_package
        packages = itertools.count()

        def build_package(kind: str, **kwargs: Any) -> Any:
            index = next(packages)
            if not hook.wants_package(index):
                return build(kind, **kwargs)
            replacement = hook.on_package(
                index, kwargs.get("block_size", 0), kwargs["l2_size"]
            )
            if replacement is not None:
                kwargs["block_size"] = replacement
            package = build(kind, **kwargs)
            package.th_fork = _hooked_fork(package.th_fork, hook, index)
            return package

        ctx.build_package = build_package
        payload = program(ctx)
        hook.finish()
        return payload

    return wrapped


# ---------------------------------------------------------------------
# strip_hints
# ---------------------------------------------------------------------
class _StripHook(_ForkHook):
    def wants_package(self, index: int) -> bool:
        return True

    def on_fork(self, package, fork, hints, after):
        return (0, 0, 0), after

    def finish(self) -> None:
        pass


def strip_hints(program: Callable) -> Callable:
    """``program`` with every hint vector forced to (0, 0, 0).

    Hints only select bins, so the stripped twin computes the same
    thing in a different dispatch order — the baseline the differential
    check compares against.  Stripping also swallows *invalid* vectors
    (RL006), so even a program that raises at fork time has a runnable
    unhinted twin.
    """
    return _wrap(program, _StripHook)


# ---------------------------------------------------------------------
# apply_plan
# ---------------------------------------------------------------------
class _PlanHook(_ForkHook):
    """Verify-and-substitute per the plan.  Rewrites at one coordinate
    chain in plan order: each ``before`` must match the value left by
    the previous rewrite (the first, what the program itself passed)."""

    def __init__(self, plan: RewritePlan) -> None:
        self._program = plan.program
        self._block: dict[int, list[Rewrite]] = {}
        self._hints: dict[tuple[int, int], list[Rewrite]] = {}
        self._after: dict[tuple[int, int], list[Rewrite]] = {}
        for rewrite in plan.rewrites:
            if rewrite.kind == "block_size":
                self._block.setdefault(rewrite.package, []).append(rewrite)
            elif rewrite.kind == "hints":
                self._hints.setdefault(
                    (rewrite.package, rewrite.fork), []
                ).append(rewrite)
            elif rewrite.kind == "after":
                self._after.setdefault(
                    (rewrite.package, rewrite.fork), []
                ).append(rewrite)
            else:
                raise OptimizationError(
                    f"unknown rewrite kind {rewrite.kind!r}",
                    program=plan.program,
                )
        self._pending = sum(
            len(chain)
            for table in (self._block, self._hints, self._after)
            for chain in table.values()
        )
        self._packages_with_forks = {
            key[0] for key in (*self._hints, *self._after)
        }

    def wants_package(self, index: int) -> bool:
        return index in self._block or index in self._packages_with_forks

    def on_package(
        self, index: int, declared_block_size: int, l2_size: int
    ) -> int | None:
        chain = self._block.get(index)
        if not chain:
            return None
        value = declared_block_size or default_block_size(l2_size, 2)
        for rewrite in chain:
            if rewrite.before != value:
                raise OptimizationError(
                    f"package {index} was created with block_size "
                    f"{value}, but the plan expected {rewrite.before}; "
                    f"the plan is stale — re-run the optimizer",
                    program=self._program,
                )
            value = rewrite.after
            self._pending -= 1
        return value

    def on_fork(self, package, fork, hints, after):
        for rewrite in self._hints.get((package, fork), ()):
            if tuple(rewrite.before) != hints:
                raise OptimizationError(
                    f"fork {fork} of package {package} passed hints "
                    f"{hints}, but the plan expected "
                    f"{tuple(rewrite.before)}; the plan is stale — "
                    f"re-run the optimizer",
                    program=self._program,
                    site=rewrite.site,
                )
            hints = tuple(rewrite.after)
            self._pending -= 1
        edge_chain = self._after.get((package, fork), ())
        if edge_chain:
            observed = after if after is not None else ()
            for rewrite in edge_chain:
                if tuple(rewrite.before) != tuple(observed):
                    raise OptimizationError(
                        f"fork {fork} of package {package} passed "
                        f"'after' edges {tuple(observed)}, but the plan "
                        f"expected {tuple(rewrite.before)}; the plan is "
                        f"stale — re-run the optimizer",
                        program=self._program,
                        site=rewrite.site,
                    )
                observed = tuple(rewrite.after)
                self._pending -= 1
            after = tuple(observed)
        return hints, after

    def finish(self) -> None:
        if self._pending:
            raise OptimizationError(
                f"{self._pending} planned rewrite(s) were never reached "
                f"— the program forked less than the capture recorded; "
                f"the plan is stale — re-run the optimizer",
                program=self._program,
            )


def apply_plan(program: Callable, plan: RewritePlan) -> Callable:
    """``program`` with ``plan`` applied (the original when empty).

    The wrapper verifies every ``before`` value against what the
    program actually does and raises :class:`OptimizationError` on any
    divergence, so a stale plan can never be half-applied silently.
    """
    if plan.empty:
        return program
    return _wrap(program, lambda: _PlanHook(plan))
