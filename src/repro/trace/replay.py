"""Replay of a stored trace into a cache hierarchy.

:func:`replay_into` is where a stored stream meets a hierarchy: one
loop over chunks, each fed to the hierarchy's ``access_data`` as slices
of the memory-mapped arrays, the form the live recorder feeds.  The
stored batches are coalesced until at least :data:`REPLAY_CHUNK_LINES`
run-length entries accumulate (a chunk never splits a batch), which
preserves every statistic: the kernel, the L2 forwarding and the
read/write bookkeeping see the same reference sequence.  So replay runs
the live kernel and the live hierarchy glue, and every sidecar sees a
chunk as it sees a live batch.

The one choice is where each level's shadow verdicts come from.  A
trace stores the live kernels' (:func:`repro.trace.store.shadow_annotation`
for the L1D, one per run head of the stream, and
:func:`repro.trace.store.hit_bytes` for the L2, one per L1 miss), and
:func:`replay_stream` hands each chunk its slice of the L1D's and the
rest of the L2's, so both levels take their array path without
simulating a fully-associative shadow.  Under a cache oracle, which
audits the shadows, and for an object without an L1D annotation (an
older store's set-associative L1D), both levels simulate their own; an
object without an L2 annotation (any older store's) gets the L1D's
verdicts and an L2 that simulates its own shadow.  Replay hierarchies
carry no L2 page mapper (a mapped run is never stored), so L1 misses
reach the L2 untranslated, in the order the live run's L2 saw them.
"""

from __future__ import annotations

import numpy as np

from repro.cache.classify import run_heads
from repro.trace.store import StoredTrace

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


def _chunks(stored: StoredTrace):
    """``(start, end, writes)`` per chunk, in stream order: entries
    ``start:end`` and the chunk's store count."""
    ends, batch_writes = stored.batch_ends, stored.batch_writes
    start = prev = 0
    for cut in _chunk_batches(ends):
        end = int(ends[cut - 1])
        yield start, end, int(np.sum(batch_writes[prev:cut], dtype=np.int64))
        start, prev = end, cut


def replay_into(hierarchy, stored: StoredTrace) -> None:
    """Feed the whole stored data stream through ``hierarchy``'s
    ``access_data``, chunk by chunk: with the stored shadow verdicts
    (:func:`replay_stream`) when the trace has the L1D's and no cache
    oracle audits the levels' own shadows, otherwise without."""
    if len(stored.shadow_hits) and hierarchy.oracle is None:
        replay_stream(hierarchy, stored)
        return
    access = hierarchy.access_data
    # Plain views: slicing then skips the memmap subclass machinery.
    lines, counts = np.asarray(stored.lines), np.asarray(stored.counts)
    for start, end, writes in _chunks(stored):
        access(lines[start:end], counts[start:end], writes)


def replay_stream(hierarchy, stored: StoredTrace) -> None:
    """Replay the whole stored stream into ``hierarchy``, each chunk
    with its slice of the stored L1D shadow verdicts and, when the trace
    has them, the rest of the stored L2 verdicts.

    ``hierarchy`` must be fresh, as :meth:`Simulator.replay` builds it:
    the annotations start from empty shadows.  The L1D's holds one
    verdict per run head of the whole stream, but the L1D drops repeats
    per batch, so a chunk that opens on the previous chunk's last line
    keeps that entry, and it gets a leading hit: the line is the most
    recently used in both the real cache and the shadow.  The L2's holds
    one verdict per L1 miss, so each chunk's L2 batch takes its verdicts
    from where the previous chunk's stopped, and the next chunk starts
    as many L1 misses on.  Raises ``ValueError`` unless each annotation
    covers its stream exactly.
    """
    access = hierarchy.access_data
    lines, counts = np.asarray(stored.lines), np.asarray(stored.counts)
    bits = np.asarray(stored.shadow_hits)
    l2_bits = np.asarray(stored.l2_shadow_hits)
    used = l2_used = 0
    for start, end, writes in _chunks(stored):
        chunk = lines[start:end]
        repeat = int(0 < start < end and chunk[0] == lines[start - 1])
        take = int(np.count_nonzero(run_heads(chunk))) - repeat
        verdicts = bits[used:used + take]
        if len(verdicts) != take:
            raise _annotation_mismatch("", len(bits), used + take)
        used += take
        if repeat:
            verdicts = np.concatenate(((1,), verdicts))
        l1_misses, _ = access(
            chunk, counts[start:end], writes, shadow_hits=verdicts,
            l2_shadow_hits=l2_bits[l2_used:] if len(l2_bits) else None,
        )
        l2_used += len(l1_misses)
    if used != len(bits):
        raise _annotation_mismatch("", len(bits), used)
    if len(l2_bits) and l2_used != len(l2_bits):
        raise _annotation_mismatch("L2 ", len(l2_bits), l2_used)


def _annotation_mismatch(level: str, bits: int, entries: int) -> ValueError:
    return ValueError(
        f"stored {level}shadow annotation does not match the stream "
        f"({bits} bits for {entries} entries)"
    )
