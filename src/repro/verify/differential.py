"""Differential self-checks: prove the simulator against itself.

Three cross-checks, each comparing two independent computations that
must agree (the style SynchroTrace-like trace-driven simulators use to
earn trust in replay determinism):

* **Trace-replay determinism** — record a threaded matmul's reference
  stream to a din-format trace, then replay the *same recorded trace*
  twice through fresh hierarchies: the two runs (and a re-recording of
  the trace itself) must be byte-identical.  The untiled interchanged
  matmul, recorded as whole loop-nest grids, must export every data
  reference the simulator counted.
* **Set-assoc ≡ fully-assoc equivalence** — a
  :class:`~repro.cache.classify.ClassifyingCache` configured with
  ``associativity == num_lines`` (one set) is, by definition, a
  fully-associative LRU cache; driven through the production
  :meth:`~repro.cache.classify.ClassifyingCache.process` loop, its real
  cache must agree with its own fully-associative shadow on every
  single access of a seeded random stream, and end with the identical
  LRU stack.
* **Schedule work conservation** — hinted and unhinted schedules of the
  same fork sequence must execute the same *multiset* of threads (each
  exactly once) touching the same multiset of data: locality scheduling
  may reorder work, never change it.

Each check returns a :class:`CheckOutcome`; the ``repro-verify`` CLI
renders them as a table and fails on any mismatch.
"""

from __future__ import annotations

import io
import random
from collections import Counter
from dataclasses import dataclass

from repro.apps.matmul.config import MatmulConfig
from repro.apps.matmul.programs import interchanged as matmul_interchanged
from repro.apps.matmul.programs import threaded as matmul_threaded
from repro.cache.classify import ClassifyingCache
from repro.cache.config import CacheConfig
from repro.core.package import ThreadPackage
from repro.machine.presets import DEFAULT_SCALE, r8000
from repro.sim.engine import Simulator
from repro.sim.result import SimResult
from repro.trace.dinero import DinWriter, read_din, simulate_din
from repro.verify.scheduler_oracle import SchedulerOracle


@dataclass
class CheckOutcome:
    """One differential check's verdict."""

    name: str
    passed: bool
    detail: str = ""

    def __str__(self) -> str:
        mark = "PASS" if self.passed else "FAIL"
        text = f"[{mark}] {self.name}"
        if self.detail:
            text += f" — {self.detail}"
        return text


# ----------------------------------------------------------------------
# 1. Trace-replay determinism
# ----------------------------------------------------------------------
def _record_din(program, verify: bool) -> tuple[str, SimResult]:
    """Run ``program`` once with a :class:`DinWriter` observing its
    recorder; return ``(trace_text, result)``."""
    simulator = Simulator(r8000(DEFAULT_SCALE), verify=verify)
    buffer = io.StringIO()

    def recording_program(ctx):
        ctx.recorder.observers.append(DinWriter(buffer))
        return program(ctx)

    recording_program.__name__ = program.__name__
    result = simulator.run(recording_program)
    return buffer.getvalue(), result


def check_trace_determinism(quick: bool = True, verify: bool = True) -> CheckOutcome:
    """Record a trace, replay it twice, re-record it: all byte-identical;
    and a grid-recorded program exports all its references."""
    n = 16 if quick else 48
    (trace_a, result_a), (trace_b, result_b) = (
        _record_din(matmul_threaded(MatmulConfig(n=n)), verify) for _ in range(2)
    )
    same_stats = result_a.cache_table_column() == result_b.cache_table_column()
    if trace_a != trace_b or not same_stats:
        return CheckOutcome(
            "trace-replay determinism",
            False,
            "re-recording the same program produced a different trace"
            if trace_a != trace_b
            else "same trace, different cache statistics",
        )
    grid_trace, grid = _record_din(matmul_interchanged(MatmulConfig(n=16)), verify)
    exported = grid_trace.count("\n")
    if exported != grid.stats.data_refs:
        return CheckOutcome(
            "trace-replay determinism",
            False,
            f"interchanged matmul exported {exported:,} of its "
            f"{grid.stats.data_refs:,} data references",
        )
    l1 = CacheConfig("L1", 1024, 32, 1)
    l2 = CacheConfig("L2", 16 * 1024, 128, 4)
    replays = []
    for _ in range(2):
        stats = simulate_din(read_din(io.StringIO(trace_a)), l1, l2)
        replays.append(
            (
                stats.l1.as_dict(),
                stats.l2.as_dict(),
                stats.inst_fetches,
                stats.data_reads,
                stats.data_writes,
            )
        )
    if replays[0] != replays[1]:
        return CheckOutcome(
            "trace-replay determinism",
            False,
            "replaying the identical recorded trace twice diverged",
        )
    references = trace_a.count("\n")
    return CheckOutcome(
        "trace-replay determinism",
        True,
        f"{references:,} recorded references, two recordings and two "
        f"replays byte-identical; grid export complete ({exported:,})",
    )


# ----------------------------------------------------------------------
# 2. Set-assoc ≡ fully-assoc equivalence
# ----------------------------------------------------------------------
def check_assoc_equivalence(
    quick: bool = True, seed: int = 1996
) -> CheckOutcome:
    """A one-set set-associative cache must *be* the fully-assoc LRU."""
    capacity = 16 if quick else 64
    accesses = 5_000 if quick else 50_000
    config = CacheConfig(
        "equiv", size=capacity * 32, line_size=32, associativity=capacity
    )
    assert config.num_sets == 1
    cache = ClassifyingCache(config)
    rng = random.Random(seed)
    # A mix of hot lines (LRU churn) and a long tail (evictions).
    for position in range(accesses):
        if rng.random() < 0.5:
            line = rng.randrange(capacity * 2)
        else:
            line = rng.randrange(capacity * 64)
        shadow_misses = cache.shadow_misses
        hit_real = not cache.process([line])
        hit_shadow = cache.shadow_misses == shadow_misses
        if hit_real != hit_shadow:
            return CheckOutcome(
                "set-assoc ≡ fully-assoc",
                False,
                f"access {position} (line {line}): set-assoc "
                f"{'hit' if hit_real else 'miss'}, fully-assoc "
                f"{'hit' if hit_shadow else 'miss'}",
            )
    if list(cache.sets[0]) != list(cache.shadow):
        return CheckOutcome(
            "set-assoc ≡ fully-assoc",
            False,
            "final LRU stacks differ",
        )
    return CheckOutcome(
        "set-assoc ≡ fully-assoc",
        True,
        f"{accesses:,} accesses agreed hit-for-hit; final LRU stacks "
        "identical",
    )


# ----------------------------------------------------------------------
# 3. Schedule work conservation (hinted vs unhinted)
# ----------------------------------------------------------------------
def check_work_conservation(
    quick: bool = True, seed: int = 1996, verify: bool = True
) -> CheckOutcome:
    """Hinted and unhinted schedules run the same multiset of work."""
    threads = 200 if quick else 2_000
    rng = random.Random(seed)
    workload = [
        (tid, rng.randrange(1, 1 << 20) * 8) for tid in range(threads)
    ]

    def run_schedule(hinted: bool) -> tuple[Counter, Counter]:
        log: list[tuple[int, int]] = []

        def proc(tid, address):
            log.append((tid, address))

        package = ThreadPackage(l2_size=64 * 1024)
        if verify:
            package.attach_oracle(SchedulerOracle(program="work-conservation"))
        for tid, address in workload:
            if hinted:
                package.th_fork(proc, tid, address, hint1=address)
            else:
                package.th_fork(proc, tid, address)
        package.th_run()
        executed = Counter(tid for tid, _ in log)
        touched = Counter(address for _, address in log)
        return executed, touched

    hinted_exec, hinted_touch = run_schedule(hinted=True)
    unhinted_exec, unhinted_touch = run_schedule(hinted=False)
    if any(count != 1 for count in hinted_exec.values()):
        return CheckOutcome(
            "schedule work conservation",
            False,
            "a hinted thread ran zero or multiple times",
        )
    if hinted_exec != unhinted_exec:
        return CheckOutcome(
            "schedule work conservation",
            False,
            "hinted and unhinted schedules executed different thread sets",
        )
    if hinted_touch != unhinted_touch:
        return CheckOutcome(
            "schedule work conservation",
            False,
            "hinted and unhinted schedules touched different data",
        )
    return CheckOutcome(
        "schedule work conservation",
        True,
        f"{threads:,} threads: identical execution and access multisets "
        "under both schedules",
    )


# ----------------------------------------------------------------------
def run_all_checks(
    quick: bool = True, seed: int = 1996, verify: bool = True
) -> list[CheckOutcome]:
    """Every differential check, in a deterministic order."""
    return [
        check_trace_determinism(quick=quick, verify=verify),
        check_assoc_equivalence(quick=quick, seed=seed),
        check_work_conservation(quick=quick, seed=seed, verify=verify),
    ]
