"""The benchmark's workloads: what one op and one pass run, and digests.

A *table pass* runs the versions behind the paper's cache Tables
3/5/7/9 -- one op per application, 11 ``Simulator`` runs in all --
through ``repro.exp.runners.run_versions``, under the two scopes a
saved ``repro-experiments`` run installs: a live ``Telemetry`` and a
content-addressed ``TraceStore``.  A *threads pass* forks and runs
Table 1's null threads under a traced ``Simulator.run`` with no
sidecars.

Every op returns digests of its ``SimResult``s (statistics, forks,
dispatches, final bin distribution, modeled time), so a run can check
that a speed-only change left every simulated number identical.
"""

from __future__ import annotations

import hashlib
import json
import random
import traceback
from dataclasses import asdict, replace
from functools import partial
from pathlib import Path
from time import perf_counter

from repro.apps import nbody, pde, sor
from repro.exp import (
    table2_matmul_perf,
    table3_matmul_cache,
    table4_pde_perf,
    table6_sor_perf,
    table8_nbody_perf,
)
from repro.exp.base import r8000_scaled
from repro.exp.runners import run_versions
from repro.machine.presets import r8000
from repro.obs.config import telemetry_scope
from repro.obs.telemetry import Telemetry
from repro.sim.engine import Simulator
from repro.trace.store import TraceStore, trace_store_scope

#: Null threads per threads-workload pass, and the side of the square
#: grid of 2-D hints they are spread over (Table 1's pattern).
THREADS = 1 << 14
HINT_SIDE = 32

APPS = ("matmul", "pde", "sor", "nbody")


def table_ops(seed: int) -> list[tuple[str, dict, object, object]]:
    """(app, versions, config, machine) for each op of a table pass,
    taken from the experiment modules behind Tables 3/5/7/9 in quick
    mode, with ``seed`` written into every config."""
    quick = True
    nbody_config = replace(table8_nbody_perf.config(quick), iterations=1)
    return [
        ("matmul", table3_matmul_cache.COLUMNS,
         replace(table2_matmul_perf.config(quick), seed=seed),
         r8000_scaled(quick)),
        ("pde", pde.VERSIONS,
         replace(table4_pde_perf.config(quick), seed=seed),
         r8000_scaled(quick)),
        ("sor", sor.VERSIONS,
         replace(table6_sor_perf.config(quick), seed=seed),
         r8000_scaled(quick)),
        ("nbody", nbody.VERSIONS,
         replace(nbody_config, seed=seed),
         table8_nbody_perf.machines(quick)[0]),
    ]


def result_digest(result) -> str:
    """Digest of everything a ``SimResult`` says about the simulation.

    The bin distribution's ``seq`` stamp is left out: it numbers
    ``th_run`` calls process-wide, so it differs between passes.
    """
    sched = None
    if result.sched is not None:
        sched = [result.sched.threads, result.sched.bins,
                 list(result.sched.threads_per_bin)]
    payload = {
        "stats": asdict(result.stats),
        "forks": result.forks,
        "dispatches": result.dispatches,
        "sched": sched,
        "time": asdict(result.time),
    }
    text = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class PassRecord:
    """Timings, digests, work counts and failed ops of one pass."""

    def __init__(self) -> None:
        self.seconds = 0.0
        self.ops = 0
        self.errors: dict[str, str] = {}
        self.op_seconds: dict[str, float] = {}
        self.digests: dict[str, str] = {}
        self.data_refs = 0
        self.threads = 0

    def run_op(self, name: str, op) -> None:
        """Time ``op()`` (a dict of ``SimResult``s by version) as op
        ``name``; an exception is recorded as a failed op."""
        self.ops += 1
        start = perf_counter()
        try:
            results = op()
        except Exception as exc:  # a failed op is counted, not fatal
            traceback.print_exc()
            self.errors[name] = repr(exc)
            return
        self.op_seconds[name] = perf_counter() - start
        for version, result in results.items():
            self.digests[f"{name}/{version}"] = result_digest(result)
            self.data_refs += result.stats.data_refs
            self.threads += result.forks


def table_pass(ops, store_root: Path) -> PassRecord:
    """One pass over the table ops against the store at ``store_root``
    (empty for a cold pass, filled for a warm one), with a fresh
    ``Telemetry`` so bus events do not pile up across passes."""
    record = PassRecord()
    store = TraceStore(store_root)
    with telemetry_scope(Telemetry()), trace_store_scope(store):
        start = perf_counter()
        for app, versions, config, machine in ops:
            record.run_op(app, partial(run_versions, versions, config, machine))
        record.seconds = perf_counter() - start
    return record


def _null_thread(arg1, arg2) -> None:
    """The null procedure Table 1 schedules."""


def null_threads_program(seed: int):
    """Table 1's fork pattern as a traced program: ``THREADS`` null
    threads on evenly spread 2-D hints, forked in an order ``seed``
    permutes, then one ``th_run``."""
    order = list(range(THREADS))
    random.Random(seed).shuffle(order)

    def null_threads(ctx):
        package = ctx.make_thread_package()
        block = package.scheduler.block_size
        for i in order:
            hint1 = 8 + (i % HINT_SIDE) * block
            hint2 = 8 + ((i // HINT_SIDE) % HINT_SIDE) * block
            package.th_fork(_null_thread, i, None, hint1, hint2)
        package.th_run(0)

    return null_threads


def threads_pass(program) -> PassRecord:
    """One traced run of the null-thread program, no sidecars."""
    record = PassRecord()
    simulator = Simulator(r8000())
    record.run_op(
        "threads", lambda: {"null_threads": simulator.run(program)}
    )
    record.seconds = record.op_seconds.get("threads", 0.0)
    return record
