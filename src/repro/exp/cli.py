"""Command-line entry point: ``repro-experiments [ids...] [options]``.

Runs the requested experiments (all by default) as a durable campaign:
each completed experiment is checkpointed to ``runs/<run-id>/`` so an
interrupted batch can be finished with ``--resume <run-id>``, a failing
experiment is recorded and skipped over instead of aborting the batch,
and a summary table reports what passed, failed, or errored.  See the
README section "Running long campaigns".
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.exp.registry import (
    ALIASES,
    EXPERIMENTS,
    EXTENSION_EXPERIMENTS,
    PAPER_EXPERIMENTS,
    describe_experiment,
    resolve_experiment_id,
)
from repro.resilience.campaign import CampaignConfig, run_campaign
from repro.resilience.errors import (
    CheckpointError,
    ConfigError,
    StoreCorruptionError,
)
from repro.resilience.faults import FAULTS
from repro.resilience.retry import RetryPolicy


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description=(
            "Reproduce the tables and figures of 'Thread Scheduling for "
            "Cache Locality' (Philbin et al., ASPLOS 1996) on scaled "
            "machine models."
        ),
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        metavar="ID",
        help="experiment ids to run (default: all; see --list)",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="use reduced workloads (seconds instead of minutes)",
    )
    parser.add_argument(
        "--list",
        action="store_true",
        help="list the experiment ids with one-line descriptions and exit",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="with --list: emit the listing as JSON (ids, descriptions, aliases)",
    )
    parser.add_argument(
        "--lint",
        action="store_true",
        help=(
            "statically analyse the selected experiments' thread programs "
            "(repro-lint) before running anything; abort the campaign on "
            "error-severity findings"
        ),
    )
    parser.add_argument(
        "--optimize",
        action="store_true",
        help=(
            "preflight the selected experiments' thread programs through "
            "the optimizer (repro-opt) and narrate every available "
            "semantics-preserving rewrite; the campaign still runs the "
            "programs as registered — apply rewrites with repro-opt"
        ),
    )
    parser.add_argument(
        "--verify",
        dest="verify",
        action="store_true",
        default=None,
        help=(
            "run every simulation under the runtime-verification oracles "
            "(scheduler and cache invariants; see repro-verify)"
        ),
    )
    parser.add_argument(
        "--no-verify",
        dest="verify",
        action="store_false",
        help="force the oracles off, overriding the process default",
    )
    loudness = parser.add_mutually_exclusive_group()
    loudness.add_argument(
        "-v",
        "--verbose",
        action="store_true",
        help="per-experiment progress detail (timings, checkpoint latency)",
    )
    loudness.add_argument(
        "-q",
        "--quiet",
        action="store_true",
        help="errors and the final summary only",
    )
    parser.add_argument(
        "--telemetry",
        dest="telemetry",
        action="store_true",
        default=None,
        help=(
            "record structured telemetry (events.jsonl, metrics.json, "
            "trace.json) into the run directory; on by default whenever "
            "run artifacts are saved"
        ),
    )
    parser.add_argument(
        "--no-telemetry",
        dest="telemetry",
        action="store_false",
        help="force telemetry off even when saving run artifacts",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help=(
            "collect a cache-locality profile for every experiment "
            "(per-fork-site/per-bin miss attribution, occupancy "
            "timelines) and save it as <id>.profile.json beside the "
            "result file; render with repro-profile"
        ),
    )
    parser.add_argument(
        "-j",
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help=(
            "run up to N experiments concurrently in worker processes; "
            "manifests, summaries, and --resume behave exactly as in a "
            "serial run (default: %(default)s)"
        ),
    )
    parser.add_argument(
        "--force-parallel",
        action="store_true",
        help=(
            "with --jobs: keep worker processes even on a single-CPU host "
            "(by default the campaign runs serially there, where workers "
            "only add process overhead)"
        ),
    )
    durability = parser.add_argument_group("durability")
    durability.add_argument(
        "--trace-store",
        default="traces",
        metavar="DIR",
        help=(
            "content-addressed store of binary reference-stream traces; "
            "simulations replay a stored stream when config, machine, and "
            "code all match, instead of re-running the traced program "
            "(default: %(default)s)"
        ),
    )
    durability.add_argument(
        "--no-trace-store",
        dest="trace_store",
        action="store_const",
        const=None,
        help="disable the trace store: always regenerate streams live",
    )
    durability.add_argument(
        "--runs-dir",
        default="runs",
        metavar="DIR",
        help="directory holding run manifests (default: %(default)s)",
    )
    durability.add_argument(
        "--run-id",
        default=None,
        metavar="RUN",
        help="name this run (default: timestamp-pid)",
    )
    durability.add_argument(
        "--resume",
        default=None,
        metavar="RUN",
        help=(
            "finish an earlier run, replaying its completed experiments "
            "and re-running any whose stored record is missing or corrupt "
            "(see repro-doctor for an offline audit)"
        ),
    )
    durability.add_argument(
        "--no-save",
        action="store_true",
        help="do not write run artifacts (disables --resume for this run)",
    )
    tolerance = parser.add_argument_group("failure tolerance")
    tolerance.add_argument(
        "--timeout",
        type=float,
        default=0.0,
        metavar="S",
        help="per-experiment watchdog timeout in seconds (0 = none)",
    )
    tolerance.add_argument(
        "--retries",
        type=int,
        default=1,
        metavar="N",
        help="retries per experiment for transient failures (default: %(default)s)",
    )
    tolerance.add_argument(
        "--backoff",
        type=float,
        default=0.05,
        metavar="S",
        help="base retry backoff in seconds, doubling per attempt",
    )
    tolerance.add_argument(
        "--fail-fast",
        action="store_true",
        help="stop at the first failed experiment instead of degrading",
    )
    tolerance.add_argument(
        "--max-failures",
        type=int,
        default=0,
        metavar="N",
        help=(
            "circuit breaker: stop dispatching once N experiments ended "
            "not-passed; the rest stay pending (default: 0 = unlimited)"
        ),
    )
    tolerance.add_argument(
        "--max-worker-crashes",
        type=int,
        default=2,
        metavar="N",
        help=(
            "with --jobs: quarantine an experiment after its worker dies N "
            "times (recorded as worker-crash, retried by --resume; "
            "default: %(default)s)"
        ),
    )
    tolerance.add_argument(
        "--stall-timeout",
        type=float,
        default=0.0,
        metavar="S",
        help=(
            "with --jobs: kill and recover a worker that sends no beat "
            "for S seconds (0 = stall detection off)"
        ),
    )
    tolerance.add_argument(
        "--inject-fault",
        action="append",
        default=[],
        metavar="SITE[:MODE[:TIMES]]",
        help=(
            "arm a deterministic fault for testing, e.g. sim.run:fail:2 "
            "or exp.before:interrupt (repeatable)"
        ),
    )
    return parser


def _list_experiments() -> str:
    width = max(len(experiment_id) for experiment_id in EXPERIMENTS)
    return "\n".join(
        f"{experiment_id.ljust(width)}  {describe_experiment(experiment_id)}"
        for experiment_id in EXPERIMENTS
    )


def _group_of(experiment_id: str) -> str:
    if experiment_id in PAPER_EXPERIMENTS:
        return "paper"
    if experiment_id in EXTENSION_EXPERIMENTS:
        return "extension"
    return "analysis"


def _list_experiments_json() -> str:
    """The --list listing as JSON, for scripts and CI."""
    listing = {
        "experiments": [
            {
                "id": experiment_id,
                "description": describe_experiment(experiment_id),
                "group": _group_of(experiment_id),
            }
            for experiment_id in EXPERIMENTS
        ],
        "aliases": dict(ALIASES),
    }
    return json.dumps(listing, indent=2)


def _lint_gate(ids: list[str], quick: bool, verbosity: int) -> int:
    """Statically analyse ``ids`` before the campaign runs anything.

    Returns 0 when clean; 1 on error-severity findings or targets that
    could not be analysed (the campaign must not start).  Findings are
    narrated through :class:`~repro.obs.progress.CampaignReporter` (and
    published on the event bus when telemetry is live), so they obey the
    campaign's --quiet/--verbose gating like any other narration.
    """
    from repro.analysis import resolve_targets, run_lint
    from repro.analysis.report import emit_findings, render_text
    from repro.obs.config import current_telemetry
    from repro.obs.progress import CampaignReporter

    report = run_lint(resolve_targets(ids, quick=quick))
    emit_findings(current_telemetry(), report.diagnostics)
    with CampaignReporter(sys.stdout, sys.stderr, verbosity=verbosity) as reporter:
        for target, error in sorted(report.failures.items()):
            reporter.error(
                f"{target}: lint could not analyse this target: {error}"
            )
        reporter.lint_findings(
            report.diagnostics, render_text(report).splitlines()[-1]
        )
        if report.failed:
            reporter.error(
                "repro-experiments: lint gate failed; not starting the "
                "campaign (rerun with repro-lint for details)"
            )
            return 1
    return 0


def _optimize_gate(ids: list[str], quick: bool, verbosity: int) -> int:
    """Preflight ``ids`` through the optimizer before the campaign runs.

    An *advisor*, not a gate on findings: every available
    semantics-preserving rewrite is narrated (plans at normal verbosity,
    per-rewrite detail at --verbose), but the campaign proceeds — it
    runs the programs as registered, and applying rewrites is
    ``repro-opt``'s job.  Only an optimizer failure (a program whose
    capture diverges from itself, a plan that cannot be applied) aborts,
    since that same nondeterminism would poison the campaign's results.
    """
    from repro.analysis import resolve_targets
    from repro.obs.progress import CampaignReporter
    from repro.opt import optimize_program
    from repro.resilience.errors import ReproError

    targets = [
        target
        for target in resolve_targets(ids, quick=quick)
        if target.kind == "program"
    ]
    failures = 0
    changed = 0
    rewrites = 0
    with CampaignReporter(sys.stdout, sys.stderr, verbosity=verbosity) as reporter:
        for target in targets:
            try:
                result = optimize_program(
                    target.program, target.machine, name=target.name
                )
            except ReproError as exc:
                failures += 1
                reporter.error(f"{target.name}: optimizer failed: {exc}")
                continue
            if not result.changed:
                continue
            changed += 1
            rewrites += len(result.plan.rewrites)
            reporter.info(
                f"{target.name}: {len(result.plan.rewrites)} "
                f"semantics-preserving rewrite(s) available "
                f"({', '.join(result.plan.passes_applied())})"
            )
            for rewrite in result.plan.rewrites:
                reporter.detail(f"  {rewrite.render()}")
        reporter.always(
            f"optimizer preflight: {len(targets)} program(s), "
            f"{changed} with available rewrites ({rewrites} total)"
            + (f", {failures} FAILED" if failures else "")
        )
        if failures:
            reporter.error(
                "repro-experiments: optimizer preflight failed; not "
                "starting the campaign (rerun with repro-opt for details)"
            )
            return 1
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)

    if args.list:
        print(_list_experiments_json() if args.json else _list_experiments())
        return 0
    if args.json:
        parser.error("--json only makes sense together with --list")

    requested = args.experiments or (list(EXPERIMENTS) if not args.resume else [])
    ids = [resolve_experiment_id(i) for i in requested]
    unknown = [r for r, i in zip(requested, ids) if i not in EXPERIMENTS]
    if unknown:
        # argparse convention: usage + message on stderr, exit code 2.
        parser.error(
            f"unknown experiment ids: {', '.join(unknown)} "
            f"(valid ids: {', '.join(EXPERIMENTS)})"
        )

    if args.jobs < 1:
        parser.error(f"--jobs must be >= 1, got {args.jobs}")
    if args.max_failures < 0:
        parser.error(f"--max-failures must be >= 0, got {args.max_failures}")
    if args.max_worker_crashes < 1:
        parser.error(
            f"--max-worker-crashes must be >= 1, got {args.max_worker_crashes}"
        )
    if args.stall_timeout < 0:
        parser.error(f"--stall-timeout must be >= 0, got {args.stall_timeout}")

    try:
        for spec in args.inject_fault:
            FAULTS.arm_from_spec(spec)
    except ConfigError as exc:
        parser.error(str(exc))

    if args.lint:
        gate = _lint_gate(
            ids,
            quick=args.quick,
            verbosity=1 if args.verbose else (-1 if args.quiet else 0),
        )
        if gate != 0:
            return gate

    if args.optimize:
        gate = _optimize_gate(
            ids,
            quick=args.quick,
            verbosity=1 if args.verbose else (-1 if args.quiet else 0),
        )
        if gate != 0:
            return gate

    config = CampaignConfig(
        ids=ids,
        quick=args.quick,
        timeout_s=args.timeout,
        retry=RetryPolicy(retries=max(args.retries, 0), backoff_s=args.backoff),
        runs_dir=args.runs_dir,
        run_id=args.run_id,
        resume=args.resume,
        fail_fast=args.fail_fast,
        save=not args.no_save,
        verify=args.verify,
        verbosity=1 if args.verbose else (-1 if args.quiet else 0),
        telemetry=args.telemetry,
        profile=args.profile,
        jobs=args.jobs,
        force_parallel=args.force_parallel,
        trace_store=args.trace_store,
        max_failures=args.max_failures,
        max_worker_crashes=args.max_worker_crashes,
        stall_timeout_s=args.stall_timeout,
    )
    try:
        return run_campaign(config)
    except StoreCorruptionError as exc:
        print(f"repro-experiments: corrupt run store: {exc}", file=sys.stderr)
        print(
            "repro-experiments: hint: a run without a readable plan cannot "
            "be resumed; start a new run (`repro-doctor` audits the store)",
            file=sys.stderr,
        )
        return 2
    except CheckpointError as exc:
        print(f"repro-experiments: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BrokenPipeError:
        sys.exit(0)  # e.g. `repro-experiments --list | head`
