"""The thread-program IR: what ``th_fork`` said, as data.

A registered ``program(ctx)`` callable is opaque — the only faithful
way to know its scheduling structure is to run it.  :func:`lift` turns
the :class:`~repro.analysis.capture.CaptureResult` of one capture
execution into a small immutable-by-convention tree:

    ProgramIR
      └─ PackageIR          (kind, block_size, hash_size, problems)
           └─ RunIR         (one th_run batch)
                └─ ForkIR   (hints, 'after' edges, call site, footprint)

Passes rewrite this tree in place (it is plain dataclasses, not frozen)
and record every mutation in a :class:`~repro.opt.plan.RewritePlan`;
:mod:`repro.opt.apply` then replays the plan against the original
program.  ``ProgramIR.render()`` is the canonical JSON form used by the
idempotence tests: two programs with the same scheduling structure
render byte-identically.

Fork indices are *package-wide*: the Nth ``th_fork`` on a package has
``index == N`` regardless of which ``th_run`` batch it lands in.  That
is the coordinate the apply-time hooks count in, so a plan survives
the round trip even when a pass reshuffles nothing but hints.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from repro.analysis.capture import CaptureResult, FootSeg

#: Bumped when the rendered JSON shape changes incompatibly.
IR_SCHEMA_VERSION = 1


@dataclass
class ForkIR:
    """One captured ``th_fork``, addressable for rewriting.

    ``index`` is package-wide (counts across runs); ``ordinal`` is the
    position within the run — the id space 'after' edges live in.
    """

    index: int
    run: int
    ordinal: int
    hints: tuple[int, int, int]
    after: tuple[int, ...]
    file: str | None
    line: int | None
    func_name: str
    footprint: tuple[FootSeg, ...] = ()

    @property
    def site(self) -> str:
        """Human-readable call site, mirroring Diagnostic.location."""
        if self.file is not None:
            return f"{self.file}:{self.line}" if self.line else self.file
        if self.line is not None:
            return f"<capture>:{self.line}"
        return "<capture>"

    @property
    def hinted(self) -> bool:
        return any(self.hints)


@dataclass
class RunIR:
    """One ``th_run`` batch."""

    index: int
    forks: list[ForkIR] = field(default_factory=list)


@dataclass
class ProblemIR:
    """A capture problem carried into the IR so passes can key on it
    (RL006 preserves the defective hint vector capture replaced)."""

    code: str
    run: int | None
    ordinal: int | None
    hints: tuple[int, int, int] | None


@dataclass
class PackageIR:
    """One thread package's captured lifetime."""

    index: int
    kind: str  # "independent" | "dependent" | "guarded"
    block_size: int
    hash_size: int
    fold_symmetric: bool
    runs: list[RunIR] = field(default_factory=list)
    problems: list[ProblemIR] = field(default_factory=list)

    @property
    def forks(self) -> list[ForkIR]:
        return [fork for run in self.runs for fork in run.forks]


@dataclass
class ProgramIR:
    """The whole program's captured scheduling structure."""

    program: str
    machine: str
    l2_size: int
    l1d_line_size: int
    packages: list[PackageIR] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "schema": IR_SCHEMA_VERSION,
            "program": self.program,
            "machine": self.machine,
            "packages": [
                {
                    "kind": package.kind,
                    "block_size": package.block_size,
                    "hash_size": package.hash_size,
                    "fold_symmetric": package.fold_symmetric,
                    "problems": [
                        {
                            "code": problem.code,
                            "run": problem.run,
                            "ordinal": problem.ordinal,
                        }
                        for problem in package.problems
                    ],
                    "runs": [
                        {
                            "forks": [
                                {
                                    "hints": list(fork.hints),
                                    "after": list(fork.after),
                                }
                                for fork in run.forks
                            ],
                        }
                        for run in package.runs
                    ],
                }
                for package in self.packages
            ],
        }

    def render(self) -> str:
        """Canonical JSON: the byte-identity form for idempotence tests.

        Only semantics-bearing fields are rendered — call sites and
        footprints are capture metadata, not program structure, and the
        re-captured optimized program reports the *wrapper's* sites.
        """
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))


def lift(capture: CaptureResult, program: str) -> ProgramIR:
    """Build the IR tree from one capture execution."""
    packages: list[PackageIR] = []
    for package_index, package in enumerate(capture.packages):
        runs: list[RunIR] = []
        fork_index = 0
        for run in package.runs:
            forks: list[ForkIR] = []
            for record in run.records:
                forks.append(
                    ForkIR(
                        index=fork_index,
                        run=run.index,
                        ordinal=record.ordinal,
                        hints=record.hints,
                        after=record.after,
                        file=record.file,
                        line=record.line,
                        func_name=getattr(
                            record.func, "__name__", repr(record.func)
                        ),
                        footprint=tuple(record.footprint),
                    )
                )
                fork_index += 1
            runs.append(RunIR(index=run.index, forks=forks))
        packages.append(
            PackageIR(
                index=package_index,
                kind=package.kind,
                block_size=package.block_size,
                hash_size=package.hash_size,
                fold_symmetric=package.fold_symmetric,
                runs=runs,
                problems=[
                    ProblemIR(
                        code=problem.code,
                        run=problem.run,
                        ordinal=problem.ordinal,
                        hints=problem.hints,
                    )
                    for problem in package.problems
                ],
            )
        )
    return ProgramIR(
        program=program,
        machine=capture.machine.name,
        l2_size=capture.machine.l2.size,
        l1d_line_size=1 << capture.line_bits,
        packages=packages,
    )
