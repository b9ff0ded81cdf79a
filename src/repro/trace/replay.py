"""Replay of a stored trace into a cache hierarchy.

:func:`replay_into` is where a stored stream meets a hierarchy: in
large chunks through the ordinary ``access_data`` kernel, or
vectorized by :func:`replay_stream`.  The dict-based kernel walks a
stream one run-length entry at a time; replaying a stored trace can do
better because everything sequential has been lifted out of the loop:

* consecutive-duplicate entries are guaranteed hits with no state
  change, so the stream is deduplicated with one vectorized compare;
* a *direct-mapped* cache has no LRU state — an access hits exactly
  when the previous access to its set was the same line — so hits and
  misses fall out of one stable sort by set index and two shifted
  compares;
* compulsory misses are first-ever occurrences (``np.unique``);
* the capacity/conflict split needs the fully-associative shadow, whose
  LRU state *is* inherently sequential — which is why the store
  simulates it once at write time and ships the per-entry hit bits in
  the container (:func:`repro.trace.store.shadow_hit_bits`).

The result is byte-identical to the dict kernel (the round-trip tests
pin all four paper apps), but runs at numpy speed for the L1D — the
level that sees every reference.  L1 misses still flow through the
ordinary ``ClassifyingCache.process`` for the L2 (any associativity):
that stream is one to two orders of magnitude smaller.

Only direct-mapped L1Ds take the fast path (both paper machines'
R8000; the R10000's 2-way L1 takes the chunked path) and only when no
sidecar needs per-batch hooks.
"""

from __future__ import annotations

import numpy as np

from repro.trace.store import StoredTrace, dedup_mask

#: Replay chunk size: stored batches are coalesced until at least this
#: many run-length entries accumulate, then fed as one kernel batch.
REPLAY_CHUNK_LINES = 1 << 16


def _chunk_batches(ends) -> list[int]:
    """Batch-index cut points whose chunks hold >= REPLAY_CHUNK_LINES
    entries each (except the last).  Returned values are exclusive batch
    indices; ``ends[cut - 1]`` is the chunk's end position."""
    total_batches = len(ends)
    if total_batches == 0:
        return []
    total_lines = int(ends[-1])
    targets = np.arange(
        REPLAY_CHUNK_LINES,
        total_lines + REPLAY_CHUNK_LINES,
        REPLAY_CHUNK_LINES,
        dtype=np.int64,
    )
    cuts = np.unique(np.searchsorted(ends, targets, side="left") + 1)
    cuts = cuts[cuts <= total_batches].tolist()
    if not cuts or cuts[-1] != total_batches:
        cuts.append(total_batches)
    return cuts


def fast_replay_supported(hierarchy, stored: StoredTrace) -> bool:
    """Whether :func:`replay_stream` can replay ``stored`` exactly."""
    return (
        hierarchy.l1d.config.associativity == 1
        and not hierarchy.has_sidecars
        and len(stored.shadow_hits) > 0
        and stored.header.get("l1d_lines") == hierarchy.l1d.config.num_lines
    )


def replay_into(hierarchy, stored: StoredTrace) -> None:
    """Feed the whole stored data stream through ``hierarchy``.

    Vectorized when :func:`fast_replay_supported`; otherwise through
    ``access_data`` in chunks.  Merging adjacent batches preserves every
    statistic (the kernel, L2 forwarding and read/write bookkeeping see
    the same reference sequence), so the often tiny recorded batches go
    in as large chunks, sliced from the memory-mapped views as lists,
    the kernel's fastest input form.
    """
    if fast_replay_supported(hierarchy, stored):
        replay_stream(hierarchy, stored)
        return
    access = hierarchy.access_data
    lines, counts = stored.lines, stored.counts
    ends = stored.batch_ends
    cum_writes = np.concatenate(
        ([0], np.cumsum(stored.batch_writes, dtype=np.int64))
    )
    start = prev = 0
    for cut in _chunk_batches(ends):
        end = int(ends[cut - 1])
        access(
            lines[start:end].tolist(),
            counts[start:end].tolist(),
            int(cum_writes[cut] - cum_writes[prev]),
        )
        start, prev = end, cut


def replay_stream(hierarchy, stored: StoredTrace) -> None:
    """Replay the whole stored stream into ``hierarchy`` vectorized.

    Mutates the hierarchy's counters and the L1D statistics directly
    (accesses, the three miss classes, the compulsory-history set) and
    forwards the ordered L1 miss lines through the ordinary L2 kernel.
    The per-level dict state (real sets, shadow) is left empty — nothing
    that feeds :meth:`~repro.cache.hierarchy.CacheHierarchy.snapshot`
    reads it, and the sidecar check in :func:`fast_replay_supported`
    guarantees nobody else does either.
    """
    lines = np.asarray(stored.lines)
    total_refs = int(np.sum(stored.counts, dtype=np.int64))
    writes_total = int(np.sum(stored.batch_writes, dtype=np.int64))
    hierarchy._data_reads += total_refs - writes_total
    hierarchy._data_writes += writes_total
    l1 = hierarchy.l1d
    l1.stats.accesses += total_refs
    if len(lines) == 0:
        return

    deduped = lines[dedup_mask(lines)]
    shadow_hit = np.asarray(stored.shadow_hits, dtype=bool)
    if len(shadow_hit) != len(deduped):
        raise ValueError(
            "stored shadow annotation does not match the stream "
            f"({len(shadow_hit)} bits for {len(deduped)} entries)"
        )

    # Line numbers span a tiny fraction of the int64 range (addresses
    # come from one allocator arena), so both radix sorts below run on
    # rebased 32-bit values — half the byte passes of an int64 sort.
    base = np.int64(deduped.min())
    if int(deduped.max()) - int(base) < np.iinfo(np.int32).max:
        rebased = (deduped - base).astype(np.int32)
    else:
        rebased = deduped
        base = np.int64(0)

    # Direct-mapped hit/miss: group accesses by set with a stable sort;
    # within a set's subsequence, an access misses exactly when it is
    # the set's first access or a different line than its predecessor.
    set_ids = (deduped & np.int64(l1.set_mask)).astype(np.int32)
    order = np.argsort(set_ids, kind="stable")
    sorted_sets = set_ids[order]
    sorted_lines = rebased[order]
    miss_sorted = np.empty(len(deduped), dtype=bool)
    miss_sorted[0] = True
    np.not_equal(sorted_sets[1:], sorted_sets[:-1], out=miss_sorted[1:])
    miss_sorted[1:] |= sorted_lines[1:] != sorted_lines[:-1]
    miss = np.empty(len(deduped), dtype=bool)
    miss[order] = miss_sorted

    # Classification: first-ever occurrences are compulsory; the rest
    # split capacity/conflict on the stored shadow verdict.  (A stable
    # radix argsort groups equal lines with ascending original indices,
    # so each group's head is the global first occurrence — the same
    # result as np.unique(return_index=True) at a fraction of its
    # mergesort cost.)
    value_order = np.argsort(rebased, kind="stable")
    sorted_values = rebased[value_order]
    new_group = np.empty(len(deduped), dtype=bool)
    new_group[0] = True
    np.not_equal(sorted_values[1:], sorted_values[:-1], out=new_group[1:])
    unique_lines = sorted_values[new_group].astype(np.int64) + base
    first_occurrence = np.zeros(len(deduped), dtype=bool)
    first_occurrence[value_order[new_group]] = True
    repeat_miss = miss & ~first_occurrence
    n_compulsory = len(unique_lines)
    n_conflict = int(np.count_nonzero(repeat_miss & shadow_hit))
    n_capacity = int(np.count_nonzero(repeat_miss & ~shadow_hit))
    n_misses = int(np.count_nonzero(miss))
    assert n_compulsory + n_capacity + n_conflict == n_misses

    l1.stats.misses += n_misses
    l1.stats.compulsory += n_compulsory
    l1.stats.capacity += n_capacity
    l1.stats.conflict += n_conflict
    l1._seen.update(unique_lines.tolist())

    # Forward the ordered miss stream through the ordinary L2 kernel —
    # small enough that the dict loop is fine, and it keeps the L2's
    # classification machinery authoritative for any associativity.
    miss_lines = deduped[miss]
    shift = hierarchy._l2_shift
    if shift:
        miss_lines = miss_lines >> shift
    hierarchy.l2.process(miss_lines.tolist())
