"""Shared machinery for the performance and cache-table experiments."""

from __future__ import annotations

import logging
from typing import Callable

from repro.exp.base import ExperimentResult
from repro.machine.spec import MachineSpec
from repro.obs.profile import current_collector
from repro.resilience.faults import fault_point
from repro.sim.engine import Simulator
from repro.sim.result import SimResult
from repro.trace.store import TraceCapture, current_trace_store, trace_key_for
from repro.util.tables import TextTable
from repro.verify.config import resolve_verify

log = logging.getLogger("repro.campaign")

VersionFactory = Callable[[object], Callable]


def run_versions(
    versions: dict[str, VersionFactory],
    config,
    machine: MachineSpec,
    verify: bool | None = None,
    payload_versions: frozenset[str] | set[str] | tuple[str, ...] = (),
) -> dict[str, SimResult]:
    """Simulate every version of an application on one machine.

    ``verify`` arms the runtime-verification oracles for these runs;
    ``None`` (the default) defers to the process-wide switch, which
    ``repro-experiments --verify`` flips for a whole campaign.

    When a campaign has installed a process-wide trace store
    (``repro.trace.store.trace_store_scope``), each version's reference
    stream is looked up by content address first: a hit replays the
    stored stream through a fresh hierarchy (identical statistics, no
    program re-run), a miss runs the program live with a capture tap
    and stores the stream for next time.  The store is bypassed — the
    program always runs live — for versions named in
    ``payload_versions`` (their numeric payload is consumed downstream;
    replay reproduces statistics, not payloads), when verification is
    armed (replay runs no scheduler, so the scheduler oracle and the
    guarded-package checks would silently not run), and when a
    locality-profiling collector is active (attribution needs the live
    fork-site context).
    """
    simulator = Simulator(machine, verify=verify)
    store = current_trace_store()
    use_store = (
        store is not None
        and not resolve_verify(verify, None)
        and current_collector() is None
    )
    results: dict[str, SimResult] = {}
    for name, factory in versions.items():
        fault_point("exp.version", program=name, machine=machine.name)
        program = factory(config)
        if not use_store or name in payload_versions:
            results[name] = simulator.run(program)
            continue
        key = trace_key_for(program, config, machine, 4096)
        stored = store.get(key)
        if stored is not None:
            log.info(
                "trace store: replaying %s/%s on %s (%.8s)",
                key.app, name, machine.name, key.digest,
            )
            results[name] = simulator.replay(stored)
            continue
        capture = TraceCapture()
        result = simulator.run(program, capture=capture)
        digest = store.put(key, capture, result, machine, 4096)
        if digest is not None:
            log.info(
                "trace store: stored %s/%s on %s (%.8s, %d entries)",
                key.app, name, machine.name, digest, capture.total_lines,
            )
        results[name] = result
    return results


def perf_table(
    experiment_id: str,
    title: str,
    versions: dict[str, VersionFactory],
    config,
    machines: list[MachineSpec],
    paper_seconds: dict[str, tuple[float, float]],
    payload_versions: frozenset[str] | set[str] | tuple[str, ...] = (),
) -> tuple[ExperimentResult, dict[str, list[SimResult]]]:
    """Build a Table 2/4/6/8-style performance table.

    Rows are program versions; for each machine the modeled seconds
    appear beside the paper's measured seconds.  ``payload_versions``
    names versions whose numeric payload the caller consumes — they
    always run live instead of replaying from the trace store (see
    :func:`run_versions`).
    """
    per_machine = [
        run_versions(versions, config, m, payload_versions=payload_versions)
        for m in machines
    ]
    columns = [""]
    for machine in machines:
        columns += [f"{machine.name} model(s)", f"{machine.name.split('/')[0]} paper(s)"]
    table = TextTable(columns, title=title)
    results: dict[str, list[SimResult]] = {}
    for name in versions:
        row: list[object] = [name]
        results[name] = []
        for i, machine in enumerate(machines):
            sim_result = per_machine[i][name]
            results[name].append(sim_result)
            row.append(f"{sim_result.modeled_seconds:.3f}")
            row.append(f"{paper_seconds[name][i]:.2f}")
        table.add_row(row)
    return ExperimentResult(experiment_id, title, table), results


CACHE_METRICS = [
    "I fetches",
    "D references",
    "L1 misses",
    "L1 rate %",
    "L2 misses",
    "L2 rate %",
    "L2 compulsory",
    "L2 capacity",
    "L2 conflict",
]


def cache_table(
    experiment_id: str,
    title: str,
    versions: dict[str, VersionFactory],
    config,
    machine: MachineSpec,
    paper_cache: dict[str, dict[str, float]],
    paper_names: dict[str, str] | None = None,
) -> tuple[ExperimentResult, dict[str, SimResult]]:
    """Build a Table 3/5/7/9-style cache-behaviour table on one machine.

    Columns hold this reproduction's raw counts next to the paper's
    counts (which are in thousands and from the full-size workload —
    comparable in *shape*, not magnitude).  ``paper_names`` maps our
    version names to the paper's column keys when they differ.
    """
    paper_names = paper_names or {}
    results = run_versions(versions, config, machine)
    columns = [""]
    for name in versions:
        columns += [name, f"{name} paper(K)"]
    table = TextTable(columns, title=title)
    for metric in CACHE_METRICS:
        row: list[object] = [metric]
        for name in versions:
            value = results[name].cache_table_column()[metric]
            if metric.endswith("%"):
                row.append(f"{value:.1f}")
            else:
                row.append(f"{int(value):,}")
            paper_key = paper_names.get(name, name)
            paper_value = paper_cache[metric][paper_key]
            if metric.endswith("%"):
                row.append(f"{paper_value:.1f}")
            else:
                row.append(f"{int(paper_value):,}")
        table.add_row(row)
    return ExperimentResult(experiment_id, title, table), results
