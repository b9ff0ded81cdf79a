"""Content-addressed binary trace store with zero-copy replay.

Generating a reference stream by re-running a traced Python program is
the dominant cost of a simulation — the batched cache kernel does
millions of lines per second, but the program that feeds it does not.
This module makes the stream a first-class, cachable artifact:

* :class:`TraceCapture` is a hierarchy *tap* sidecar that records every
  ``access_data`` batch verbatim (run-length compression preserved)
  while a live simulation runs, together with the live L1D kernel's
  shadow verdicts on it;
* :meth:`TraceStore.put` turns those verdicts into the stored shadow
  annotation with one numpy scatter — the fully-associative shadow is
  simulated once, by the live kernel, never again at store time;
* :func:`write_trace` serializes the captured stream plus everything
  else a :class:`~repro.sim.result.SimResult` needs (instruction
  totals, fork/dispatch counts, the final scheduling distribution) into
  a compact single-file binary container;
* :func:`load_trace` memory-maps the container read-only — the arrays
  handed back are views into the page cache, never copies;
* :class:`TraceStore` content-addresses the containers under
  ``<root>/objects/`` keyed by :class:`TraceKey`; each container
  carries the sha256 of its data region, so ``repro-doctor`` can verify
  every object and delete the corrupt ones.

The content-address key is ``(app, version, config-digest, code-hash)``:
any change to the experiment configuration, the machine geometry, the
traced program's source, or the trace-generation core invalidates the
key (the lookup simply misses and the trace is regenerated).  Replay
correctness rests on the stream being a *complete* record of the data
side and instruction fetches being order-independent *totals* — see
:meth:`repro.sim.engine.Simulator.replay`.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import logging
from contextlib import contextmanager
from dataclasses import asdict, dataclass, is_dataclass
from pathlib import Path
from typing import Any

import numpy as np

from repro.core.stats import SchedulingStats
from repro.resilience.checkpoint import atomic_write
from repro.resilience.errors import CheckpointError

log = logging.getLogger("repro.campaign")

#: Container magic + format version (bumped on any layout change; the
#: version participates in the code hash indirectly via this module).
MAGIC = b"RTRC"
FORMAT_VERSION = 1

#: Containers larger than this are not stored (a paper-scale n=1024 run
#: is well under it; the cap keeps a misconfigured sweep from filling
#: the disk with multi-gigabyte streams).
MAX_TRACE_BYTES = 256 << 20

#: Array layout inside the container, in file order.  ``shadow_hits``
#: is the stored fully-associative-LRU hit annotation (one byte per
#: *deduplicated* stream entry, see :func:`dedup_mask`): the shadow
#: evolves on every access, which is inherently sequential, so the
#: live kernel's verdicts are kept and replayed as data — the
#: vectorized replay kernel then needs no sequential state at all.  A
#: set-associative L1D's object carries an empty annotation: it replays
#: through the dict step, which runs its own shadow.
_ARRAY_DTYPES = {
    "lines": "<i8",
    "counts": "<u4",
    "batch_ends": "<i8",
    "batch_writes": "<i8",
    "shadow_hits": "<u1",
}


def dedup_mask(lines: np.ndarray) -> np.ndarray:
    """Mask of stream entries that differ from their predecessor.

    Consecutive duplicate lines are guaranteed hits with no state change
    in either the real cache or the shadow (the kernel's run-length fast
    path skips them), so the shadow annotation is computed and stored
    per *deduplicated* entry; replay recomputes this same mask to align.
    """
    keep = np.empty(len(lines), dtype=bool)
    if len(lines):
        keep[0] = True
        np.not_equal(lines[1:], lines[:-1], out=keep[1:])
    return keep


def shadow_annotation(lines: np.ndarray, shadow_misses: np.ndarray) -> np.ndarray:
    """The stored shadow annotation of stream ``lines``: one byte per
    entry :func:`dedup_mask` keeps, 0 where the live kernel's shadow
    missed and 1 where it hit, from the stream positions of its misses
    (:meth:`TraceCapture.shadow_misses`) by one scatter.

    The kernel restarts its run-length fast path at every batch, so a
    batch that opens on the previous batch's last line is simulated,
    not skipped — but that line is the shadow's most recent, so it
    hits, and every miss position is an entry the mask keeps.  The spec
    is :func:`repro.cache.reference.shadow_hit_bits`.
    """
    keep = dedup_mask(lines)
    assert keep[shadow_misses].all(), "shadow miss on a repeated line"
    hits = np.ones(len(lines), dtype=np.uint8)
    hits[shadow_misses] = 0
    return hits[keep]


#: Modules whose source participates in every code hash: the trace
#: recorder/conversion core, the thread package and scheduler (they
#: interleave the per-thread streams), and the allocator/layout code
#: that decides addresses.  Editing any of these invalidates every
#: stored trace; editing a single app's module invalidates only its own.
CORE_MODULES = (
    "repro.trace.recorder",
    "repro.trace.blocks",
    "repro.trace.costmodel",
    "repro.core.package",
    "repro.core.blocking",
    "repro.core.deps",
    "repro.core.scheduler",
    "repro.core.bins",
    "repro.core.hints",
    "repro.core.policies",
    "repro.core.thread",
    "repro.mem.allocator",
    "repro.mem.arrays",
    "repro.mem.layout",
)

_module_source_digests: dict[str, str] = {}


def _canonical_json(payload: Any) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _jsonable(value: Any) -> Any:
    """Best-effort canonical form for config values (digest input)."""
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)


def _module_digest(module_name: str) -> str:
    cached = _module_source_digests.get(module_name)
    if cached is not None:
        return cached
    try:
        module = importlib.import_module(module_name)
        source = Path(module.__file__).read_bytes()
        digest = hashlib.sha256(source).hexdigest()
    except (ImportError, OSError, TypeError, AttributeError):
        digest = "unhashable"
    _module_source_digests[module_name] = digest
    return digest


def code_hash(program_module: str) -> str:
    """Digest of the traced program's source plus the trace core."""
    parts = {name: _module_digest(name) for name in CORE_MODULES}
    parts[program_module] = _module_digest(program_module)
    return hashlib.sha256(_canonical_json(parts).encode()).hexdigest()


@dataclass(frozen=True)
class TraceKey:
    """The content address of one stored trace."""

    app: str
    version: str
    config_digest: str
    code_hash: str

    @property
    def digest(self) -> str:
        return hashlib.sha256(
            _canonical_json(asdict(self)).encode()
        ).hexdigest()


def trace_key_for(program, config, machine, code_footprint: int) -> TraceKey:
    """The :class:`TraceKey` for running ``program`` as configured.

    ``app`` comes from the program's defining module (``repro.apps.X.…``
    → ``X``), ``version`` from its ``__name__``; the config digest folds
    the experiment config, the full machine spec, and the code footprint;
    the code hash folds the program module's source with the trace core.
    """
    module = getattr(program, "__module__", "unknown")
    parts = module.split(".")
    app = parts[2] if parts[:2] == ["repro", "apps"] and len(parts) > 2 else module
    version = getattr(program, "__name__", "program")
    config_payload = {
        "config": (
            _jsonable(asdict(config))
            if is_dataclass(config) and not isinstance(config, type)
            else _jsonable(config)
        ),
        "machine": _jsonable(asdict(machine)),
        "code_footprint": code_footprint,
    }
    config_digest = hashlib.sha256(
        _canonical_json(config_payload).encode()
    ).hexdigest()
    return TraceKey(
        app=app,
        version=version,
        config_digest=config_digest,
        code_hash=code_hash(module),
    )


class TraceCapture:
    """Hierarchy tap that records every data batch verbatim, with the
    L1D kernel's shadow verdicts on it.

    Attach as ``hierarchy.tap`` (see
    :attr:`repro.cache.hierarchy.CacheHierarchy.tap`); each
    ``access_data`` call appends one batch — lines, counts and write
    totals exactly as fed — so replaying the capture reproduces the
    cache simulation bit for bit, batch boundaries included.  The tap
    runs after the kernel, and keeps the positions where a
    direct-mapped L1D's shadow missed as int64 arrays at stream
    offsets, one per batch: they become the stored shadow annotation
    (:func:`shadow_annotation`).  A set-associative kernel passes no
    verdicts, and its object stores no annotation.
    """

    def __init__(self) -> None:
        self._lines: list[np.ndarray] = []
        self._counts: list[np.ndarray] = []
        self._shadow_misses: list[np.ndarray] = []
        self._ends: list[int] = []
        self._writes: list[int] = []
        self._length = 0

    def on_access(self, lines, counts, writes: int, shadow_misses) -> None:
        """Record one simulated batch; ``shadow_misses`` are the batch
        positions where the L1D's shadow missed, or ``None``."""
        arr = np.asarray(lines, dtype=np.int64)
        if counts is None:
            cnt = np.ones(len(arr), dtype=np.uint32)
        else:
            cnt = np.asarray(counts, dtype=np.uint32)
        if shadow_misses:
            positions = np.array(shadow_misses, dtype=np.int64)
            positions += self._length
            self._shadow_misses.append(positions)
        self._lines.append(arr)
        self._counts.append(cnt)
        self._length += len(arr)
        self._ends.append(self._length)
        self._writes.append(writes)

    @property
    def batches(self) -> int:
        return len(self._ends)

    @property
    def total_lines(self) -> int:
        return self._length

    def arrays(self) -> dict[str, np.ndarray]:
        """The four stream arrays, concatenated over the batches."""
        return {
            "lines": (
                np.concatenate(self._lines)
                if self._lines
                else np.empty(0, np.int64)
            ),
            "counts": (
                np.concatenate(self._counts)
                if self._counts
                else np.empty(0, np.uint32)
            ),
            "batch_ends": np.asarray(self._ends, dtype=np.int64),
            "batch_writes": np.asarray(self._writes, dtype=np.int64),
        }

    def shadow_misses(self) -> np.ndarray:
        """Stream positions, in order, where the L1D's shadow missed."""
        if not self._shadow_misses:
            return np.empty(0, np.int64)
        return np.concatenate(self._shadow_misses)


def _align(offset: int, boundary: int = 16) -> int:
    return (offset + boundary - 1) // boundary * boundary


def build_header(
    key: TraceKey, result, code_footprint: int, machine
) -> dict[str, Any]:
    """The JSON header stored alongside the stream (array geometry is
    filled in by :func:`write_trace`).

    The L1D/L2 geometry fields guard replay: machine *names* do not
    distinguish scaled-cache variants (``r8000()`` vs ``r8000(64)``),
    so replay validates the stored geometry against the target machine
    before trusting the stream (the content key already separates them;
    this catches hand-loaded mismatches)."""
    sched = None
    if result.sched is not None:
        sched = {
            "threads": result.sched.threads,
            "bins": result.sched.bins,
            "threads_per_bin": list(result.sched.threads_per_bin),
            "seq": result.sched.seq,
        }
    return {
        "format": "rtrace",
        "version": FORMAT_VERSION,
        "key": asdict(key),
        "digest": key.digest,
        "program": result.program,
        "machine": result.machine,
        "line_bits": machine.l1d.line_bits,
        "l1d_lines": machine.l1d.num_lines,
        "l1d_assoc": machine.l1d.associativity,
        "l2_line_bits": machine.l2.line_bits,
        "l2_lines": machine.l2.num_lines,
        "l2_assoc": machine.l2.associativity,
        "code_footprint": code_footprint,
        "app_instructions": result.app_instructions,
        "thread_instructions": result.thread_instructions,
        "forks": result.forks,
        "dispatches": result.dispatches,
        "sched": sched,
    }


def container_layout(
    header: dict[str, Any],
    lengths: dict[str, int],
    total_refs: int,
    payload_sha256: str = "0" * 64,
) -> tuple[dict[str, Any], int]:
    """The header :func:`write_trace` stores for arrays of ``lengths``
    entries, and the container's exact size in bytes — known before the
    payload exists, since its checksum is a fixed-width hex digest."""
    header = dict(
        header, payload_sha256=payload_sha256, total_refs=total_refs,
        batches=lengths["batch_ends"],
    )
    # Two-pass offset computation: the header length depends on the
    # offsets, which depend on the header length.  Padding the header to
    # a fixed-point is simpler: compute with a placeholder, then re-pad.
    geometry = {
        name: {"dtype": dtype, "count": lengths[name]}
        for name, dtype in _ARRAY_DTYPES.items()
    }
    for _ in range(3):
        header["arrays"] = geometry
        encoded = _canonical_json(header).encode()
        data_start = _align(len(MAGIC) + 8 + len(encoded))
        offset = data_start
        changed = False
        for name, dtype in _ARRAY_DTYPES.items():
            if geometry[name].get("offset") != offset:
                geometry[name]["offset"] = offset
                changed = True
            offset = _align(offset + lengths[name] * np.dtype(dtype).itemsize)
        header["data_offset"] = data_start
        if not changed:
            break
    return header, offset


def write_trace(
    path: Path, header: dict[str, Any], arrays: dict[str, np.ndarray]
) -> None:
    """Serialize one trace container atomically (tmp + rename).

    Layout: ``MAGIC | version u32 | header-length u32 | header JSON |
    NUL pad to 16 | arrays`` with each array 16-byte aligned; the header
    records every array's offset/dtype/count and the sha256 of the whole
    data region, so the doctor can verify integrity without a schema.
    Only the ``io.enospc`` fault site fires: :meth:`TraceStore.get` does
    not hash payloads, so a simulated torn or flipped container would
    replay wrong numbers silently.
    """
    blobs = {
        name: np.ascontiguousarray(arrays[name], dtype=np.dtype(dtype))
        for name, dtype in _ARRAY_DTYPES.items()
    }
    data = b"".join(
        blobs[name].tobytes().ljust(_align(blobs[name].nbytes), b"\0")
        for name in _ARRAY_DTYPES
    )
    header, _ = container_layout(
        header,
        {name: len(blob) for name, blob in blobs.items()},
        int(blobs["counts"].sum()),
        hashlib.sha256(data).hexdigest(),
    )
    encoded = _canonical_json(header).encode()
    prefix = (
        MAGIC
        + FORMAT_VERSION.to_bytes(4, "little")
        + len(encoded).to_bytes(4, "little")
        + encoded
    )
    blob = prefix.ljust(header["data_offset"], b"\0") + data
    atomic_write(path, blob, sites=("io.enospc",))


@dataclass
class StoredTrace:
    """One memory-mapped trace container, ready to replay."""

    path: Path
    header: dict[str, Any]
    lines: np.ndarray
    counts: np.ndarray
    batch_ends: np.ndarray
    batch_writes: np.ndarray
    shadow_hits: np.ndarray

    @property
    def machine(self) -> str:
        return self.header["machine"]

    @property
    def program(self) -> str:
        return self.header["program"]

    @property
    def batches(self) -> int:
        return len(self.batch_ends)

    def sched_stats(self) -> SchedulingStats | None:
        sched = self.header.get("sched")
        if sched is None:
            return None
        return SchedulingStats(
            threads=sched["threads"],
            bins=sched["bins"],
            threads_per_bin=tuple(sched["threads_per_bin"]),
            seq=sched["seq"],
        )


def read_header(path: Path) -> dict[str, Any]:
    """Parse and sanity-check a container's header (no array mapping)."""
    try:
        with open(path, "rb") as handle:
            prefix = handle.read(len(MAGIC) + 8)
            if len(prefix) < len(MAGIC) + 8 or prefix[: len(MAGIC)] != MAGIC:
                raise CheckpointError(
                    f"not a trace container: {path.name}", path=str(path)
                )
            version = int.from_bytes(prefix[4:8], "little")
            if version != FORMAT_VERSION:
                raise CheckpointError(
                    f"unsupported trace format version {version} in "
                    f"{path.name}",
                    path=str(path),
                )
            header_len = int.from_bytes(prefix[8:12], "little")
            encoded = handle.read(header_len)
    except OSError as exc:
        raise CheckpointError(
            f"cannot read trace {path.name}: {exc}",
            path=str(path),
            transient=True,
        ) from exc
    if len(encoded) != header_len:
        raise CheckpointError(
            f"truncated trace header in {path.name}", path=str(path)
        )
    try:
        header = json.loads(encoded)
    except json.JSONDecodeError as exc:
        raise CheckpointError(
            f"corrupt trace header in {path.name}: {exc}", path=str(path)
        ) from exc
    if not isinstance(header, dict) or "arrays" not in header:
        raise CheckpointError(
            f"malformed trace header in {path.name}", path=str(path)
        )
    return header


def load_trace(path: Path) -> StoredTrace:
    """Memory-map one container read-only (zero-copy views)."""
    header = read_header(path)
    size = path.stat().st_size
    views: dict[str, np.ndarray] = {}
    for name, dtype in _ARRAY_DTYPES.items():
        try:
            geometry = header["arrays"][name]
            offset, count = geometry["offset"], geometry["count"]
        except (KeyError, TypeError) as exc:
            raise CheckpointError(
                f"trace header missing array {name!r} in {path.name}",
                path=str(path),
            ) from exc
        itemsize = np.dtype(dtype).itemsize
        if offset + count * itemsize > size:
            raise CheckpointError(
                f"trace array {name!r} extends past end of {path.name}",
                path=str(path),
            )
        if count:
            views[name] = np.memmap(
                path, dtype=np.dtype(dtype), mode="r", offset=offset,
                shape=(count,),
            )
        else:
            views[name] = np.empty(0, dtype=np.dtype(dtype))
    lines, ends = views["lines"], views["batch_ends"]
    if len(ends) != len(views["batch_writes"]) or (
        len(ends) and int(ends[-1]) != len(lines)
    ):
        raise CheckpointError(
            f"inconsistent batch geometry in {path.name}", path=str(path)
        )
    if len(views["shadow_hits"]) > len(lines):
        raise CheckpointError(
            f"inconsistent shadow annotation in {path.name}", path=str(path)
        )
    return StoredTrace(
        path=path,
        header=header,
        lines=lines,
        counts=views["counts"],
        batch_ends=ends,
        batch_writes=views["batch_writes"],
        shadow_hits=views["shadow_hits"],
    )


def verify_object(path: Path) -> dict[str, Any]:
    """Full integrity check: header parse + data-region sha256.

    Returns the header on success; raises :class:`CheckpointError` on
    any mismatch.  This is the doctor's audit (and the repair filter) —
    the hot :func:`load_trace` path deliberately skips the hash so
    replay stays zero-copy.
    """
    header = read_header(path)
    data_offset = header.get("data_offset")
    recorded = header.get("payload_sha256")
    if not isinstance(data_offset, int) or not isinstance(recorded, str):
        raise CheckpointError(
            f"trace header missing integrity fields in {path.name}",
            path=str(path),
        )
    try:
        with open(path, "rb") as handle:
            handle.seek(data_offset)
            actual = hashlib.sha256(handle.read()).hexdigest()
    except OSError as exc:
        raise CheckpointError(
            f"cannot read trace {path.name}: {exc}",
            path=str(path),
            transient=True,
        ) from exc
    if actual != recorded:
        raise CheckpointError(
            f"trace data checksum mismatch in {path.name}", path=str(path)
        )
    return header


class TraceStore:
    """Content-addressed store of trace containers on disk.

    ``<root>/objects/<aa>/<digest>.rtr`` holds the containers (the file
    name *is* the content address, so lookup is a path check).  All
    writes are atomic, idempotent and go through a per-writer tmp file,
    so concurrent ``--jobs`` workers sharing a store race benignly: the
    loser of a rename publishes identical bytes.  Nothing sweeps the
    store when it opens, since other writers may be mid-write;
    ``repro-doctor --trace-store`` sweeps orphaned tmp files offline.
    """

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.objects = self.root / "objects"
        self.objects.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0
        self.stores = 0

    def object_path(self, digest: str) -> Path:
        return self.objects / digest[:2] / f"{digest}.rtr"

    def get(self, key: TraceKey) -> StoredTrace | None:
        """The stored trace for ``key``, or ``None`` on miss.

        An unreadable or mismatched object is treated as a miss (the
        caller regenerates; the doctor reports and deletes the debris) —
        a broken store never breaks an experiment.
        """
        path = self.object_path(key.digest)
        if not path.exists():
            self.misses += 1
            return None
        try:
            stored = load_trace(path)
        except CheckpointError as exc:
            log.warning("trace store: ignoring unreadable object (%s)", exc)
            self.misses += 1
            return None
        if stored.header.get("digest") != key.digest:
            self.misses += 1
            return None
        self.hits += 1
        return stored

    def put(
        self, key: TraceKey, capture: TraceCapture, result, machine,
        code_footprint: int,
    ) -> str | None:
        """Store a captured run under ``key``; returns the digest.

        Failures degrade to ``None`` with a warning — the simulation
        already succeeded, and a full disk must not turn that success
        into a campaign failure.  Runs with thread faults are not stored
        (their streams are not the program's nominal trace), nor are
        streams over :data:`MAX_TRACE_BYTES`.
        """
        if result.thread_faults:
            return None
        digest = key.digest
        path = self.object_path(digest)
        if path.exists():
            return digest
        header = build_header(key, result, code_footprint, machine)
        arrays = capture.arrays()
        if machine.l1d.associativity == 1:
            arrays["shadow_hits"] = shadow_annotation(
                arrays["lines"], capture.shadow_misses()
            )
        else:
            # The dict step replays a set-associative L1D and runs its
            # own shadow; it never reads an annotation.
            arrays["shadow_hits"] = np.empty(0, dtype=np.uint8)
        lengths = {name: len(array) for name, array in arrays.items()}
        _, size = container_layout(header, lengths, int(arrays["counts"].sum()))
        if size > MAX_TRACE_BYTES:
            log.warning(
                "trace store: %s/%s stream too large to store "
                "(%d bytes)", key.app, key.version, size,
            )
            return None
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            write_trace(path, header, arrays)
        except (CheckpointError, OSError) as exc:
            log.warning("trace store: could not store %s (%s)", digest, exc)
            return None
        self.stores += 1
        return digest

    def object_paths(self) -> list[Path]:
        return sorted(self.objects.glob("*/*.rtr"))


# ----------------------------------------------------------------------
# Process-wide store (campaign scope)
# ----------------------------------------------------------------------
# Mirrors repro.verify.config: the campaign enters a scope around the
# whole run (serial driver and each --jobs worker alike), and
# run_versions consults it transparently.

_STORE: TraceStore | None = None


def set_trace_store(store: TraceStore | None) -> TraceStore | None:
    """Install the process-wide store; returns the previous one."""
    global _STORE
    previous = _STORE
    _STORE = store
    return previous


def current_trace_store() -> TraceStore | None:
    return _STORE


@contextmanager
def trace_store_scope(store: TraceStore | None):
    """Scoped campaign override of the process-wide store."""
    previous = set_trace_store(store)
    try:
        yield store
    finally:
        set_trace_store(previous)


def open_trace_store(root: str | None) -> TraceStore | None:
    """A :class:`TraceStore` at ``root``, or ``None`` (disabled).

    A root that cannot be created degrades to ``None`` with a warning —
    the transparent cache must never gate a campaign on disk health.
    """
    if root is None:
        return None
    try:
        return TraceStore(root)
    except OSError as exc:
        log.warning("trace store: cannot open %s (%s); disabled", root, exc)
        return None
