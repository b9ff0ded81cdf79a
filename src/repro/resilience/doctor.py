"""``repro-doctor``: verify, delete and sweep the object stores.

Everything a campaign stores is an object that carries its own checksum
(:mod:`repro.resilience.checkpoint`, :mod:`repro.trace.store`), and a
corrupt object is a miss that the next campaign recomputes.  So the
doctor has three jobs, in run directories and trace stores alike::

    repro-doctor                       # audit every run under ./runs
    repro-doctor --runs-dir /data/runs r1 r2
    repro-doctor --trace-store traces  # also audit a trace store
    repro-doctor --repair              # delete what the audit found

* verify every object: ``plan.json``, records and profiles by their
  ``sha256`` field, ``.rtr`` trace containers by their data checksum;
* delete the corrupt ones (``--repair``): ``repro-experiments --resume``
  re-runs a deleted record, and the next campaign regenerates a trace;
* sweep debris (``--repair``): orphaned ``*.tmp`` writes.

``manifest.json`` is a report, not an object: ``--resume`` rewrites it
from the objects, so the doctor leaves it alone.  Findings are narrated
through :class:`repro.obs.progress.CampaignReporter` and published as
``doctor.finding`` instants on the event bus when telemetry is live.

Exit status: 0 when no error-severity finding remains, 1 when one does,
2 for usage errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.resilience.checkpoint import RunStore, read_object
from repro.resilience.errors import CheckpointError, StoreCorruptionError

#: The doctor's diagnostic codes (DESIGN.md §13).  Retired numbers are
#: never reused.
CODES: dict[str, str] = {
    "D002": "object unreadable (transient I/O error)",
    "D011": "orphaned .tmp file from an interrupted write",
    "D015": "no readable plan (the run cannot be resumed)",
    "D019": "corrupt object (repair deletes it; it is recomputed)",
}

#: Pseudo run id stamped on trace-store findings (they audit
#: ``--trace-store``, not a run directory).
TRACE_STORE_LABEL = "trace-store"

SEVERITIES = ("error", "warning")


@dataclass
class Finding:
    """One problem the audit found; ``paths`` are what repair deletes."""

    code: str
    severity: str  # "error" | "warning"
    run_id: str
    message: str
    repairable: bool = True
    paths: list[Path] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.code not in CODES:
            raise ValueError(f"unknown doctor code {self.code!r}")
        if self.severity not in SEVERITIES:
            raise ValueError(f"unknown severity {self.severity!r}")

    def render(self) -> str:
        """One human-readable report line."""
        fix = "" if self.repairable else " (not auto-repairable)"
        return f"{self.run_id}: {self.code} {self.severity}: {self.message}{fix}"

    def to_dict(self) -> dict[str, Any]:
        payload: dict[str, Any] = {
            "code": self.code,
            "severity": self.severity,
            "run_id": self.run_id,
            "message": self.message,
            "repairable": self.repairable,
        }
        if self.paths:
            payload["paths"] = [str(path) for path in self.paths]
        return payload


# ----------------------------------------------------------------------
# Audit
# ----------------------------------------------------------------------
def _bad_object(label: str, path: Path, exc: CheckpointError) -> Finding:
    """D002 for a read that failed, D019 for bytes that do not verify."""
    if exc.transient:
        return Finding("D002", "error", label, str(exc), repairable=False)
    return Finding(
        "D019", "warning", label, f"{exc}; repair deletes it", paths=[path]
    )


def _debris(label: str, tmp_files: list[Path]) -> list[Finding]:
    if not tmp_files:
        return []
    return [
        Finding(
            "D011", "warning", label,
            "orphaned tmp file(s) from interrupted writes: "
            + ", ".join(p.name for p in tmp_files),
            paths=tmp_files,
        )
    ]


def audit_run(store: RunStore, run_id: str) -> list[Finding]:
    """Every problem the doctor can see in one run directory."""
    findings = _debris(run_id, sorted(store.run_dir(run_id).glob("*.tmp")))
    plan_path = store.plan_path(run_id)
    try:
        plan = read_object(plan_path)
        problem = "plan.json is missing"
    except StoreCorruptionError as exc:
        plan, problem = None, str(exc)
    except CheckpointError as exc:
        return [*findings, _bad_object(run_id, plan_path, exc)]
    if plan is None:
        findings.append(
            Finding(
                "D015", "error", run_id,
                f"{problem}; the run cannot be resumed — start a new run",
                repairable=False,
            )
        )
        return findings
    for experiment_id in plan.get("ids", []):
        for path in (
            store.result_path(run_id, experiment_id),
            store.artifact_path(run_id, f"{experiment_id}.profile"),
        ):
            try:
                read_object(path)
            except CheckpointError as exc:
                findings.append(_bad_object(run_id, path, exc))
    return findings


def audit_trace_store(root: Path) -> list[Finding]:
    """Audit a ``--trace-store`` directory (``repro.trace.store``):
    every container's header and data checksum, and orphaned tmp files."""
    from repro.trace.store import verify_object

    findings = _debris(TRACE_STORE_LABEL, sorted(root.glob("**/*.tmp")))
    for path in sorted(root.glob("objects/*/*.rtr")):
        try:
            if verify_object(path).get("digest") != path.stem:
                raise CheckpointError(
                    f"header digest of {path.name} does not match its name",
                    path=str(path),
                )
        except CheckpointError as exc:
            findings.append(_bad_object(TRACE_STORE_LABEL, path, exc))
    return findings


def discover_runs(root: Path) -> list[str]:
    """Run directories under ``root``: anything holding store files."""
    if not root.is_dir():
        return []
    return [
        child.name
        for child in sorted(root.iterdir())
        if child.is_dir()
        and (any(child.glob("*.json")) or any(child.glob("*.tmp")))
    ]


# ----------------------------------------------------------------------
# Repair
# ----------------------------------------------------------------------
def repair(findings: list[Finding]) -> list[str]:
    """Delete what the repairable findings name; returns the actions.

    Raises :class:`CheckpointError` when a file cannot be deleted.
    """
    actions: list[str] = []
    for finding in findings:
        if not finding.repairable:
            continue
        for path in finding.paths:
            try:
                path.unlink(missing_ok=True)
            except OSError as exc:
                raise CheckpointError(
                    f"cannot delete {path.name}: {exc}", path=str(path)
                ) from exc
        names = ", ".join(path.name for path in finding.paths)
        actions.append(f"{finding.code}: deleted {names}")
    return actions


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-doctor",
        description=(
            "Verify every stored object of the campaign run store (and "
            "with --trace-store, a trace store); --repair deletes corrupt "
            "objects and orphaned tmp files."
        ),
    )
    parser.add_argument(
        "run_ids",
        nargs="*",
        metavar="RUN_ID",
        help="specific runs to audit (default: every run under --runs-dir)",
    )
    parser.add_argument(
        "--runs-dir",
        default="runs",
        metavar="DIR",
        help="runs root to audit (default: %(default)s)",
    )
    parser.add_argument(
        "--trace-store",
        default=None,
        metavar="DIR",
        help=(
            "also audit a content-addressed trace store (full data "
            "checksums of every object, orphaned tmp files)"
        ),
    )
    parser.add_argument(
        "--repair",
        action="store_true",
        help=(
            "delete corrupt objects (the next campaign recomputes them) "
            "and sweep debris"
        ),
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format (default: %(default)s)",
    )
    parser.add_argument(
        "--list-codes",
        action="store_true",
        help="print the diagnostic code table and exit",
    )
    parser.add_argument(
        "-q", "--quiet", action="store_true",
        help="print only the summary line (text format)",
    )
    return parser


def render_codes() -> str:
    width = max(len(code) for code in CODES)
    return "\n".join(f"{code:<{width}}  {text}" for code, text in CODES.items())


def _emit_findings(findings: list[Finding]) -> None:
    """Publish findings on the event bus when telemetry is live."""
    from repro.obs.config import current_telemetry

    telemetry = current_telemetry()
    if not telemetry.enabled:
        return
    for finding in findings:
        telemetry.bus.instant(
            "doctor.finding",
            code=finding.code,
            severity=finding.severity,
            run_id=finding.run_id,
            message=finding.message,
        )


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.list_codes:
        print(render_codes())
        return 0
    store = RunStore(args.runs_dir)
    root = Path(args.runs_dir)
    run_ids = list(args.run_ids) or discover_runs(root)
    if not run_ids and not args.trace_store:
        print(f"doctor: no runs found under {root}")
        return 0

    audits = {run_id: audit_run(store, run_id) for run_id in run_ids}
    if args.trace_store:
        audits[TRACE_STORE_LABEL] = audit_trace_store(Path(args.trace_store))
    all_findings = [f for findings in audits.values() for f in findings]
    repaired: dict[str, list[str]] = {}
    failed_repairs: dict[str, str] = {}
    if args.repair:
        for label, findings in audits.items():
            try:
                actions = repair(findings)
            except CheckpointError as exc:
                failed_repairs[label] = str(exc)
                continue
            if actions:
                repaired[label] = actions
    _emit_findings(all_findings)

    # Errors (D002, D015) are exactly the findings repair cannot fix.
    errors = any(f.severity == "error" for f in all_findings)
    status = 1 if (errors or failed_repairs) else 0

    if args.format == "json":
        print(
            json.dumps(
                {
                    "runs": run_ids,
                    "findings": [f.to_dict() for f in all_findings],
                    "repaired": repaired,
                    "failed_repairs": failed_repairs,
                    "healthy": not all_findings,
                },
                indent=2,
                sort_keys=True,
            )
        )
        return status

    from repro.obs.progress import CampaignReporter

    counts = {s: 0 for s in SEVERITIES}
    for finding in all_findings:
        counts[finding.severity] += 1
    audited = f"{len(run_ids)} run(s)"
    if args.trace_store:
        audited += " + trace store"
    summary = (
        f"doctor: {audited} audited — "
        f"{counts['error']} error(s), {counts['warning']} warning(s)"
        + (f"; {len(repaired)} store(s) repaired" if repaired else "")
        + (
            f"; {len(failed_repairs)} repair(s) FAILED"
            if failed_repairs
            else ""
        )
    )
    with CampaignReporter(sys.stdout, sys.stderr, -1 if args.quiet else 0) as reporter:
        reporter.doctor_findings(all_findings, summary)
        for label, actions in repaired.items():
            for action in actions:
                reporter.info(f"  repaired {label}: {action}")
        for label, error in failed_repairs.items():
            reporter.error(f"  repair failed for {label}: {error}")
    return status


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BrokenPipeError:
        sys.exit(0)
