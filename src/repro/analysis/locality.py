"""Hint/locality lint (the RL family).

These analyzers replay what the scheduler geometry did with the captured
forks: missing or malformed hints, hint values that cannot be addresses,
bin collapse and skew, per-bin footprints that overflow the L2, and
hash-table pressure.  Severity policy: only RL006 (an interface
violation that raises at runtime) is an error; the rest are quality
warnings — a program can be legitimately unhinted (the scheduler then
degrades to FIFO, which the paper's own serial baselines effectively
are), but the author should be told.
"""

from __future__ import annotations

from repro.analysis.capture import CaptureResult, CapturedRun, PackageCapture
from repro.analysis.diagnostics import Diagnostic, Severity, make_diagnostic
from repro.core.package import PACKAGE_REGION_PREFIX

#: A single bin only counts as a collapse once this many threads share it.
COLLAPSE_MIN_THREADS = 8
#: Skew: the fullest bin holding more than this share of a sizeable run.
SKEW_MIN_THREADS = 32
SKEW_MAX_SHARE = 0.6
#: Per-bin footprint thresholds, as multiples of the L2 capacity.  The
#: paper's default block (C/2 per hint dimension) aims a bin's data at
#: about one cache's worth; modest overshoot is normal (boundary
#: columns, thread records), so the warning starts at 1.5x.
FOOTPRINT_INFO_FACTOR = 1.5
FOOTPRINT_WARN_FACTOR = 3.0
#: Hash chains longer than this mean th_init's hash_size is too small.
MAX_HEALTHY_CHAIN = 4


def address_like_records(records, space) -> bool:
    """Whether a package's hints behave like memory addresses.

    True when most non-zero hints resolve to a program array (the
    package's own ``th_*`` regions do not count).  Packages hinted on a
    synthetic plane (the paper's N-body uses scaled spatial
    coordinates) resolve rarely — only by accident when the plane
    overlaps the heap — and are exempt: small or repeated hint values
    are the point there.  Shared between the RL002/RL008 analyzers and
    the optimizer passes keyed to them, so both sides agree on which
    packages the address rules apply to.
    """
    nonzero = 0
    resolved = 0
    for record in records:
        for hint in record.hints:
            if hint:
                nonzero += 1
                owner = space.owner_of(hint)
                if owner and not owner.name.startswith(PACKAGE_REGION_PREFIX):
                    resolved += 1
    return nonzero > 0 and resolved >= nonzero / 2


def has_duplicate_hints(hints: tuple[int, int, int]) -> bool:
    """Whether a vector names the same non-zero value twice (RL008)."""
    used = [hint for hint in hints if hint]
    return len(used) != len(set(used))


def problem_diagnostics(
    capture: CaptureResult, program: str
) -> list[Diagnostic]:
    """Convert fork-time problems (RL006, RC002) to diagnostics."""
    return [
        make_diagnostic(
            problem.code,
            problem.message,
            program=program,
            file=problem.file,
            line=problem.line,
        )
        for package in capture.packages
        for problem in package.problems
    ]


def analyze_locality(capture: CaptureResult, program: str) -> list[Diagnostic]:
    """Run every RL analyzer over every captured package."""
    diagnostics: list[Diagnostic] = []
    for index, package in enumerate(capture.packages):
        label = f"package {index}" if len(capture.packages) > 1 else "package"
        diagnostics.extend(
            _analyze_package(capture, package, label, program)
        )
    return diagnostics


def _analyze_package(
    capture: CaptureResult,
    package: PackageCapture,
    label: str,
    program: str,
) -> list[Diagnostic]:
    diagnostics: list[Diagnostic] = []
    records = package.all_records
    if not records:
        return diagnostics

    # -- RL001: threads forked without hints ----------------------------
    unhinted = [record for record in records if record.dims == 0]
    if unhinted:
        first = unhinted[0]
        if len(unhinted) == len(records):
            message = (
                f"{label}: all {len(records)} threads forked without "
                f"hints; every thread lands in the same (unhinted) bin "
                f"and locality scheduling degrades to FIFO"
            )
        else:
            message = (
                f"{label}: {len(unhinted)} of {len(records)} threads "
                f"forked without hints; they share one bin regardless "
                f"of what they touch"
            )
        diagnostics.append(
            make_diagnostic(
                "RL001",
                message,
                program=program,
                file=first.file,
                line=first.line,
                unhinted=len(unhinted),
                threads=len(records),
            )
        )

    # -- RL002: index-like hints among address hints --------------------
    base = capture.space.base
    address_like = address_like_records(records, capture.space)
    if address_like:
        suspect = [
            record
            for record in records
            if any(0 < hint < base for hint in record.hints)
        ]
        if suspect:
            first = suspect[0]
            small = next(h for h in first.hints if 0 < h < base)
            diagnostics.append(
                make_diagnostic(
                    "RL002",
                    f"{label}: {len(suspect)} of {len(records)} threads "
                    f"pass hints below the address-space base 0x{base:x} "
                    f"(e.g. {small}) while other hints are real "
                    f"addresses — an index was probably passed where an "
                    f"address was meant",
                    program=program,
                    file=first.file,
                    line=first.line,
                    suspect=len(suspect),
                    threads=len(records),
                )
            )

    # -- RL008: duplicate values inside one hint vector -----------------
    if address_like:
        duplicated = [
            record for record in records if has_duplicate_hints(record.hints)
        ]
        if duplicated:
            first = duplicated[0]
            diagnostics.append(
                make_diagnostic(
                    "RL008",
                    f"{label}: {len(duplicated)} of {len(records)} threads "
                    f"repeat a hint value inside one vector; the duplicate "
                    f"dimension files them in diagonal blocks that threads "
                    f"hinting the same region once never share — drop the "
                    f"repeated value",
                    program=program,
                    file=first.file,
                    line=first.line,
                    duplicated=len(duplicated),
                    threads=len(records),
                )
            )

    # -- per-run analyses -----------------------------------------------
    for run in package.runs:
        diagnostics.extend(
            _analyze_run(capture, package, run, label, program)
        )
    return diagnostics


def _analyze_run(
    capture: CaptureResult,
    package: PackageCapture,
    run: CapturedRun,
    label: str,
    program: str,
) -> list[Diagnostic]:
    diagnostics: list[Diagnostic] = []
    records = run.records
    if not records:
        return diagnostics
    run_label = f"{label} run {run.index}"
    hinted = [record for record in records if record.dims]
    first = records[0]

    # -- RL003: every thread hashed into one bin ------------------------
    bins = {record.bin_ref for record in records}
    if (
        len(bins) == 1
        and len(hinted) >= COLLAPSE_MIN_THREADS
        and len(hinted) == len(records)
    ):
        spread = {record.hints for record in records}
        diagnostics.append(
            make_diagnostic(
                "RL003",
                f"{run_label}: all {len(records)} hinted threads "
                f"collapsed into one bin ({len(spread)} distinct hint "
                f"vectors, block_size {package.block_size}); the run is "
                f"serial with no locality benefit — the hints span less "
                f"than one scheduling block",
                program=program,
                file=first.file,
                line=first.line,
                threads=len(records),
                block_size=package.block_size,
            )
        )

    # -- RL004: bin occupancy skew --------------------------------------
    counts = run.bin_counts
    if (
        len(counts) >= 2
        and len(records) >= SKEW_MIN_THREADS
        and len(hinted) == len(records)
    ):
        share = max(counts) / len(records)
        if share > SKEW_MAX_SHARE:
            diagnostics.append(
                make_diagnostic(
                    "RL004",
                    f"{run_label}: the fullest of {len(counts)} bins "
                    f"holds {share:.0%} of {len(records)} threads; the "
                    f"run is mostly serial (the paper's analysis "
                    f"assumes threads spread quite uniformly)",
                    program=program,
                    file=first.file,
                    line=first.line,
                    share=round(share, 3),
                    bins=len(counts),
                    threads=len(records),
                )
            )

    # -- RL005: per-bin footprint vs the L2 -----------------------------
    l2_size = capture.machine.l2.size
    line_size = 1 << capture.line_bits
    worst_bytes = 0
    worst_bin = None
    oversized = 0
    per_bin_lines: dict[int, set[int]] = {}
    for record in records:
        lines = per_bin_lines.setdefault(record.bin_ref, set())
        for segment in record.footprint:
            lines.update(segment.lines(capture.line_bits))
    for bin_ref, lines in per_bin_lines.items():
        touched = len(lines) * line_size
        if touched > FOOTPRINT_INFO_FACTOR * l2_size:
            oversized += 1
        if touched > worst_bytes:
            worst_bytes = touched
            worst_bin = bin_ref
    if oversized and worst_bin is not None:
        factor = worst_bytes / l2_size
        severity = None  # registry default (warning)
        if factor <= FOOTPRINT_WARN_FACTOR:
            severity = Severity.INFO
        key = next(
            record.bin_key
            for record in records
            if record.bin_ref == worst_bin
        )
        diagnostics.append(
            make_diagnostic(
                "RL005",
                f"{run_label}: {oversized} bin(s) touch more than "
                f"{FOOTPRINT_INFO_FACTOR:g}x the L2 ({l2_size} bytes); "
                f"worst bin {key} touches {worst_bytes} bytes "
                f"({factor:.1f}x) — its threads will evict their own "
                f"data (block_size {package.block_size} is too large "
                f"for this machine)",
                severity=severity,
                program=program,
                file=first.file,
                line=first.line,
                worst_bytes=worst_bytes,
                l2_bytes=l2_size,
                oversized_bins=oversized,
            )
        )

    # -- RL007: hash-chain pressure -------------------------------------
    if run.max_chain > MAX_HEALTHY_CHAIN:
        diagnostics.append(
            make_diagnostic(
                "RL007",
                f"{run_label}: bin hash chains reach length "
                f"{run.max_chain} (hash_size {package.hash_size}); "
                f"every th_fork pays a linear probe — grow th_init's "
                f"hash_size",
                program=program,
                file=first.file,
                line=first.line,
                max_chain=run.max_chain,
                hash_size=package.hash_size,
            )
        )
    return diagnostics
