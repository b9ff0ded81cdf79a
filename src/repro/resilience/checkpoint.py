"""Crash-safe run artifacts: one object store for plans, records and profiles.

A campaign writes everything it learns under ``runs/<run-id>/``::

    runs/20260806-141503-1234/
        plan.json            # run id, planned ids, quick flag, created_at
        table1.json          # one record per experiment run: rendered
        table2.json          #   table, shape checks, error (if any), timing
        table2.profile.json  # locality profile (``--profile`` only)
        manifest.json        # report: the plan plus every record
        interrupted          # empty marker: the last campaign was interrupted

Every stored thing is an *object*: written whole by :func:`atomic_write`
(a per-writer tmp file, fsync, rename) and sealed with a ``sha256``
field over the canonical JSON of its other fields (:func:`seal`).
:func:`read_object` reads one back verified; bytes that do not parse
or do not match their checksum are corrupt, and a corrupt object is
treated as missing.  The simulator is deterministic, so nothing is lost
that cannot be recomputed: ``--resume <run-id>`` replays every record
that verifies and re-runs every planned experiment whose record is
missing, corrupt, or not final.  Only ``plan.json`` cannot be
recomputed; a run without a readable plan cannot be resumed.

``manifest.json`` is a *report* for readers outside ``src/`` (CI, the
README, ``repro-trace``): it is rewritten from memory after every
record, at interrupt, and when ``--resume`` opens the run, and nothing
here reads it back — a torn or deleted report heals on the next resume.
``repro-doctor`` verifies, deletes and sweeps offline
(:mod:`repro.resilience.doctor`).
"""

from __future__ import annotations

import errno as errno_module
import hashlib
import json
import os
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any

from repro.resilience.errors import (
    CheckpointError,
    FaultInjected,
    ReproError,
    StoreCorruptionError,
    classify_error,
)
from repro.resilience.faults import fault_point

if TYPE_CHECKING:  # keep this module import-light: no experiment stack
    from repro.exp.base import ExperimentResult

MANIFEST_VERSION = 3

#: Statuses that mean "this experiment ran to a verdict" — resume skips
#: them.  ``error`` is *not* final: a resumed campaign retries it.
FINAL_STATUSES = ("passed", "failed")

#: Fault sites one :func:`atomic_write` visits, in write order.
WRITE_SITES = (
    "io.enospc", "io.fsync-fail", "checkpoint.write", "io.torn-write",
    "io.corrupt",
)


@dataclass
class ExperimentRecord:
    """Outcome of one experiment within one run."""

    experiment_id: str
    status: str  # "passed" | "failed" | "error"
    rendered: str = ""
    checks: list[dict[str, Any]] = field(default_factory=list)
    error: dict[str, Any] | None = None
    elapsed_s: float = 0.0
    attempts: int = 1
    #: The experiment's locality profile (``repro.obs.profile`` payload)
    #: when the campaign ran with ``--profile``.  Deliberately *not*
    #: serialized into ``to_dict()``: it is persisted as its own
    #: ``<id>.profile.json`` object, so records and manifests stay
    #: byte-identical with and without profiling.
    profile: dict[str, Any] | None = field(default=None, compare=False, repr=False)

    @classmethod
    def from_result(
        cls, result: ExperimentResult, elapsed_s: float, attempts: int = 1
    ) -> ExperimentRecord:
        return cls(
            experiment_id=result.experiment_id,
            status="passed" if result.all_passed else "failed",
            rendered=result.render(),
            checks=[
                {"claim": c.claim, "passed": c.passed, "detail": c.detail}
                for c in result.checks
            ],
            elapsed_s=elapsed_s,
            attempts=attempts,
        )

    @classmethod
    def from_error(
        cls,
        experiment_id: str,
        exc: BaseException,
        elapsed_s: float,
        attempts: int = 1,
    ) -> ExperimentRecord:
        error = {
            "type": type(exc).__name__,
            "category": classify_error(exc),
            "message": str(exc),
        }
        if isinstance(exc, ReproError):
            error["context"] = exc.context()
        return cls(
            experiment_id=experiment_id,
            status="error",
            error=error,
            elapsed_s=elapsed_s,
            attempts=attempts,
        )

    def to_dict(self) -> dict[str, Any]:
        return {
            "experiment_id": self.experiment_id,
            "status": self.status,
            "rendered": self.rendered,
            "checks": self.checks,
            "error": self.error,
            "elapsed_s": self.elapsed_s,
            "attempts": self.attempts,
        }

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> ExperimentRecord:
        return cls(
            experiment_id=payload["experiment_id"],
            status=payload["status"],
            rendered=payload.get("rendered", ""),
            checks=payload.get("checks", []),
            error=payload.get("error"),
            elapsed_s=payload.get("elapsed_s", 0.0),
            attempts=payload.get("attempts", 1),
        )

    @property
    def is_final(self) -> bool:
        return self.status in FINAL_STATUSES


@dataclass
class RunManifest:
    """Plan and progress of one campaign."""

    run_id: str
    ids: list[str]
    quick: bool = False
    interrupted: bool = False
    created_at: str = ""
    records: dict[str, ExperimentRecord] = field(default_factory=dict)
    #: Planned experiments whose stored record failed verification when
    #: the run was loaded; they count as pending.  Not serialized.
    corrupt: list[str] = field(default_factory=list, compare=False, repr=False)

    def remaining(self) -> list[str]:
        """Planned experiments not yet run to a verdict, in plan order."""
        return [
            experiment_id
            for experiment_id in self.ids
            if not (
                (record := self.records.get(experiment_id)) and record.is_final
            )
        ]

    def counts(self) -> dict[str, int]:
        counts = {"passed": 0, "failed": 0, "error": 0, "pending": 0}
        for experiment_id in self.ids:
            record = self.records.get(experiment_id)
            counts["pending" if record is None else record.status] += 1
        return counts

    def plan_payload(self) -> dict[str, Any]:
        """The ``plan.json`` object: the run header, never the records."""
        return {
            "run_id": self.run_id,
            "ids": self.ids,
            "quick": self.quick,
            "created_at": self.created_at,
        }

    def to_dict(self) -> dict[str, Any]:
        return {
            **self.plan_payload(),
            "version": MANIFEST_VERSION,
            "interrupted": self.interrupted,
            "records": {
                experiment_id: record.to_dict()
                for experiment_id, record in self.records.items()
            },
        }

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> RunManifest:
        return cls(
            run_id=payload["run_id"],
            ids=list(payload["ids"]),
            quick=payload.get("quick", False),
            interrupted=payload.get("interrupted", False),
            created_at=payload.get("created_at", ""),
            records={
                experiment_id: ExperimentRecord.from_dict(record)
                for experiment_id, record in payload.get("records", {}).items()
            },
        )


# ----------------------------------------------------------------------
# Objects: whole, sealed, verified
# ----------------------------------------------------------------------
def checksum(payload: dict[str, Any]) -> str:
    """sha256 of ``payload``'s canonical JSON (sorted keys, no spaces)."""
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def seal(payload: dict[str, Any]) -> dict[str, Any]:
    """``payload`` plus the ``sha256`` field :func:`read_object` checks."""
    return {**payload, "sha256": checksum(payload)}


def read_object(path: Path) -> dict[str, Any] | None:
    """The verified payload of a sealed object (``sha256`` removed), or
    ``None`` when the file does not exist.

    Raises :class:`StoreCorruptionError` when the bytes do not parse or
    do not match their checksum, and a transient
    :class:`CheckpointError` when they cannot be read at all — an I/O
    problem is not corruption.
    """
    try:
        data = path.read_bytes()
    except FileNotFoundError:
        return None
    except OSError as exc:
        raise CheckpointError(
            f"cannot read {path.parent.name}/{path.name}: {exc} (transient "
            "I/O error, not corruption — retry, or check permissions)",
            path=str(path),
            transient=True,
        ) from exc
    try:
        payload = json.loads(data)
        intact = payload.pop("sha256") == checksum(payload)
    except (ValueError, AttributeError, KeyError, TypeError):
        intact = False
    if not intact:
        raise StoreCorruptionError(
            f"{path.parent.name}/{path.name} is corrupt (does not parse or "
            "match its checksum)",
            path=str(path),
        )
    return payload


def atomic_write(
    path: Path, data: bytes, sites: tuple[str, ...] = WRITE_SITES
) -> None:
    """Publish ``data`` at ``path`` whole: per-writer tmp, fsync, rename.

    The tmp name carries the writer's pid and thread, so concurrent
    writers of one path (``--jobs`` workers storing the same trace)
    never share a tmp file; the last rename wins with identical bytes.
    Readers never see a torn file — unless ``io.torn-write`` is armed,
    which leaves a prefix of ``data`` at the final path (a crash on a
    non-atomic filesystem) before raising.  ``io.enospc`` and
    ``io.fsync-fail`` raise ``OSError`` inside the write;
    ``checkpoint.write`` raises after the fsync, before the rename;
    ``io.corrupt`` flips a byte of the published file *silently*.  Only
    the ``sites`` listed are visited.
    """

    def visit(site: str) -> None:
        if site in sites:
            fault_point(site, path=str(path))

    tmp = path.with_name(
        f"{path.name}.{os.getpid()}-{threading.get_ident()}.tmp"
    )
    try:
        with open(tmp, "wb") as handle:
            visit("io.enospc")
            handle.write(data)
            handle.flush()
            visit("io.fsync-fail")
            os.fsync(handle.fileno())
        # A fault here simulates a crash after writing but before
        # publishing: the final path must still hold the previous version.
        visit("checkpoint.write")
        try:
            visit("io.torn-write")
        except FaultInjected as exc:
            path.write_bytes(data[: max(1, len(data) // 2)])
            raise CheckpointError(
                f"injected torn write publishing {path.name}", path=str(path)
            ) from exc
        os.replace(tmp, path)
        try:
            visit("io.corrupt")
        except FaultInjected:  # bit rot: the caller believes it succeeded
            rotten = bytearray(data)
            rotten[len(rotten) // 2] ^= 0xFF
            path.write_bytes(bytes(rotten))
    except OSError as exc:
        hint = " (disk full)" if exc.errno == errno_module.ENOSPC else ""
        raise CheckpointError(
            f"cannot write {path.name}: {exc}{hint}",
            path=str(path),
            transient=True,
        ) from exc
    finally:
        tmp.unlink(missing_ok=True)


def atomic_write_json(path: Path, payload: dict[str, Any]) -> None:
    """:func:`atomic_write` of ``payload`` as indented, key-sorted JSON."""
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    atomic_write(path, text.encode("utf-8"))


def write_object(path: Path, payload: dict[str, Any]) -> None:
    """Publish ``payload`` as a sealed object (see :func:`read_object`)."""
    atomic_write_json(path, seal(payload))


class RunStore:
    """Creates, persists, and reloads run directories under ``root``."""

    def __init__(self, root: str | Path = "runs") -> None:
        self.root = Path(root)

    def run_dir(self, run_id: str) -> Path:
        return self.root / run_id

    def plan_path(self, run_id: str) -> Path:
        return self.run_dir(run_id) / "plan.json"

    def manifest_path(self, run_id: str) -> Path:
        return self.run_dir(run_id) / "manifest.json"

    def result_path(self, run_id: str, experiment_id: str) -> Path:
        return self.run_dir(run_id) / f"{experiment_id}.json"

    def artifact_path(self, run_id: str, name: str) -> Path:
        """A named companion object, e.g. ``table3.profile.json``."""
        return self.run_dir(run_id) / f"{name}.json"

    def interrupted_path(self, run_id: str) -> Path:
        return self.run_dir(run_id) / "interrupted"

    @staticmethod
    def generate_run_id() -> str:
        """Timestamp + pid: sortable, unique per process launch."""
        return time.strftime("%Y%m%d-%H%M%S") + f"-{os.getpid()}"

    def sweep_tmp(self, run_id: str) -> None:
        """Remove stray ``*.tmp`` files a hard kill left mid-write.

        The store is single-writer per run, so any ``.tmp`` present when
        a campaign opens the run for writing is an orphan from a
        previous process.
        """
        for tmp in self.run_dir(run_id).glob("*.tmp"):
            tmp.unlink(missing_ok=True)

    # ------------------------------------------------------------------
    # Creating and writing
    # ------------------------------------------------------------------
    def new_run(
        self, ids: list[str], quick: bool = False, run_id: str | None = None
    ) -> RunManifest:
        run_id = run_id or self.generate_run_id()
        run_dir = self.run_dir(run_id)
        if self.plan_path(run_id).exists() or self.manifest_path(run_id).exists():
            raise CheckpointError(
                f"run {run_id!r} already exists under {self.root}; "
                "use --resume or pick another --run-id",
                path=str(run_dir),
            )
        run_dir.mkdir(parents=True, exist_ok=True)
        self.sweep_tmp(run_id)
        manifest = RunManifest(
            run_id=run_id,
            ids=list(ids),
            quick=quick,
            created_at=time.strftime("%Y-%m-%dT%H:%M:%S"),
        )
        write_object(self.plan_path(run_id), manifest.plan_payload())
        self.save(manifest)
        return manifest

    def save(self, manifest: RunManifest) -> None:
        """Rewrite the ``manifest.json`` report from memory, and mark
        (or unmark) the run as interrupted."""
        atomic_write_json(
            self.manifest_path(manifest.run_id), manifest.to_dict()
        )
        marker = self.interrupted_path(manifest.run_id)
        try:
            if manifest.interrupted:
                marker.touch()
            else:
                marker.unlink(missing_ok=True)
        except OSError as exc:
            raise CheckpointError(
                f"cannot update {marker.name}: {exc}",
                path=str(marker),
                transient=True,
            ) from exc

    def record(self, manifest: RunManifest, record: ExperimentRecord) -> None:
        """Attach one experiment's outcome: its record object, then the
        report.  A crash between the two loses nothing — resume reads
        the record, never the report."""
        manifest.records[record.experiment_id] = record
        write_object(
            self.result_path(manifest.run_id, record.experiment_id),
            record.to_dict(),
        )
        self.save(manifest)

    def record_artifact(
        self, manifest: RunManifest, name: str, payload: dict[str, Any]
    ) -> None:
        """Persist one named companion object (a locality profile)."""
        write_object(self.artifact_path(manifest.run_id, name), payload)

    # ------------------------------------------------------------------
    # Loading
    # ------------------------------------------------------------------
    def load(self, run_id: str) -> RunManifest:
        """Rebuild a run from ``plan.json`` and its record objects.

        A missing or corrupt record leaves its experiment pending (the
        corrupt ones are listed in ``corrupt``).  A corrupt plan raises
        :class:`StoreCorruptionError`; a missing one, or an unreadable
        object, :class:`CheckpointError`.  Loading writes nothing, so a
        reader may load a run while its campaign is still writing.
        """
        path = self.plan_path(run_id)
        plan = read_object(path)
        if plan is None:
            if self.run_dir(run_id).is_dir():
                raise CheckpointError(
                    f"run {run_id!r} has no plan.json (it was recorded by "
                    "an older version of this tool, or is not a run); "
                    "start a new run",
                    path=str(path),
                )
            known = sorted(p.parent.name for p in self.root.glob("*/plan.json"))
            hint = f"; known runs: {', '.join(known)}" if known else ""
            raise CheckpointError(
                f"no manifest for run {run_id!r} under {self.root}{hint}",
                path=str(path),
            )
        try:
            manifest = RunManifest.from_dict(
                {**plan, "interrupted": self.interrupted_path(run_id).exists()}
            )
        except (KeyError, TypeError) as exc:
            raise StoreCorruptionError(
                f"plan.json of run {run_id!r} is malformed: {exc!r}",
                path=str(path),
            ) from exc
        for experiment_id in manifest.ids:
            try:
                payload = read_object(self.result_path(run_id, experiment_id))
                if payload is None:
                    continue
                record = ExperimentRecord.from_dict(payload)
            except (StoreCorruptionError, KeyError, TypeError):
                record = None
            if record is None or record.experiment_id != experiment_id:
                manifest.corrupt.append(experiment_id)
                continue
            manifest.records[experiment_id] = record
        return manifest
