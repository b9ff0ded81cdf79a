"""Thread-program optimizer (``repro-opt``).

``repro.opt`` closes the loop the linter opens: where ``repro-lint``
*diagnoses* bad hints, collapsed bins, and redundant dependency edges,
the optimizer *rewrites* them.  A registered ``program(ctx)`` callable
is lifted into a small IR (fork sites, hint vectors, 'after' edges, bin
geometry — from the same capture execution the linter uses), a pipeline
of semantics-preserving passes rewrites the IR, and the resulting plan
is applied back to the original program by deterministic replay:
hooks on the context's package factory and ``th_fork`` calls
substitute the planned values, verifying at every site that the
program did what the capture said it would.

Every pass is keyed to a diagnostic code (a pass never rewrites what
the linter would not flag), emits a structured rewrite plan, and is
gated by a differential self-check: the optimized program must produce
identical trace statistics under the unhinted scheduler and no-worse
L2 misses under the hinted one, with the runtime-verification oracles
armed.  See DESIGN.md §16.

Public surface::

    from repro.opt import optimize_program, differential_check

    result = optimize_program(program, machine, name="sor:threaded")
    print(result.plan.render_text())
    outcomes = differential_check(
        result.original, result.program, machine, name=result.name
    )
"""

from __future__ import annotations

from repro.opt.apply import OptimizationError, apply_plan, strip_hints
from repro.opt.check import differential_check
from repro.opt.ir import ForkIR, PackageIR, ProgramIR, RunIR, lift
from repro.opt.passes import PASSES, Pass, PassContext
from repro.opt.pipeline import OptimizeResult, optimize_program
from repro.opt.plan import Rewrite, RewritePlan

__all__ = [
    "PASSES",
    "ForkIR",
    "OptimizationError",
    "OptimizeResult",
    "PackageIR",
    "Pass",
    "PassContext",
    "ProgramIR",
    "Rewrite",
    "RewritePlan",
    "RunIR",
    "apply_plan",
    "differential_check",
    "lift",
    "optimize_program",
    "strip_hints",
]
