"""Replay of a stored trace into a cache hierarchy.

:func:`replay_into` is where a stored stream meets a hierarchy.  It is
one loop over chunks: the stored batches are coalesced until at least
:data:`REPLAY_CHUNK_LINES` run-length entries accumulate (a chunk never
splits a batch), and each chunk goes through one of two steps.
Merging adjacent batches preserves every statistic — the kernel, the L2
forwarding and the read/write bookkeeping see the same reference
sequence — and both steps use the same cut points, so a telemetry
sampler takes the same samples with the same values on either.

* The **dict step** is the hierarchy's ``access_data``: the ordinary
  kernel, for any associativity and any sidecar.  Set-associative L1Ds
  take it (the R10000's 2-way L1), and so does any hierarchy with a
  cache oracle, a locality profiler or a trace tap attached: the oracle
  audits the set and shadow dicts after every batch, and the profiler
  and the tap read every batch's lines, none of which the numpy step
  produces.  It hands ``access_data`` each chunk as slices of the
  stored arrays, the form the live recorder feeds; ``access_data``
  converts them once for the kernel's loop.
* The **numpy step** (:func:`replay_stream`) takes a direct-mapped L1D
  (both paper machines' R8000) whose only sidecar, if any, is an
  observer — the telemetry sampler, which reads statistics only.  This
  is how saved campaigns replay.

The numpy step simulates the L1D, the level that sees every
reference, with the code the live kernel's array path runs:

* consecutive-duplicate entries are guaranteed hits with no state
  change, so each chunk is deduplicated with one vectorized compare —
  its first entry against the previous chunk's last line, which keeps
  the chunk aligned with the stored shadow annotation;
* the real cache is :func:`repro.cache.classify.set_lru_misses` with
  one way: one stable sort by set index, with each set's resident line
  carried in from the previous chunk in front of its accesses, and one
  shifted compare;
* the classification is :func:`repro.cache.classify.classify_misses`:
  a miss is compulsory exactly when its line is new to the L1D's
  compulsory history (``l1d._seen``), and the capacity/conflict split
  takes the fully-associative shadow's verdicts from the container:
  the live kernel's per-entry verdicts, recorded by the capture tap as
  the stream was simulated (:func:`repro.trace.store.shadow_annotation`),
  so replay never re-runs the shadow.  A set-associative L1D's object
  ships none, and replays through the dict step.

After each chunk the numpy step applies the L1 statistics and
read/write counts ``access_data`` would have applied, hands the chunk's
L1 misses to the L2's ``ClassifyingCache.process`` as one shifted int64
array (whenever a chunk's misses reach the array path's size condition,
as all 110 chunks of the quick Table 3/5/7/9 streams do, the L2
simulates them in one array pass and keeps its state as arrays from
chunk to chunk), and calls the observer.  It carries only three things from chunk to chunk —
each set's resident line, the previous chunk's last line and the
compulsory history — so the rest of its memory is O(chunk), not
O(stream).  The L1D's set and shadow dicts stay empty: nothing that
feeds :meth:`~repro.cache.hierarchy.CacheHierarchy.snapshot` or the
sampler reads them.
"""

from __future__ import annotations

import numpy as np

from repro.cache.classify import classify_misses, run_heads, set_lru_misses
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


def _replay_chunks(stored: StoredTrace, step) -> None:
    """Call ``step(start, end, writes)`` once per chunk, in stream
    order: entries ``start:end`` and the chunk's store count."""
    ends, batch_writes = stored.batch_ends, stored.batch_writes
    start = prev = 0
    for cut in _chunk_batches(ends):
        end = int(ends[cut - 1])
        step(start, end, int(np.sum(batch_writes[prev:cut], dtype=np.int64)))
        start, prev = end, cut


def fast_replay_supported(hierarchy, stored: StoredTrace) -> bool:
    """Whether :func:`replay_stream` can replay ``stored`` exactly: a
    direct-mapped L1D, a stored shadow annotation, and no sidecar but
    an observer."""
    return (
        hierarchy.l1d.config.associativity == 1
        and hierarchy.oracle is None
        and hierarchy.profiler is None
        and hierarchy.tap is None
        and len(stored.shadow_hits) > 0
    )


def replay_into(hierarchy, stored: StoredTrace) -> None:
    """Feed the whole stored data stream through ``hierarchy``, chunk by
    chunk: the numpy step when :func:`fast_replay_supported`, otherwise
    ``access_data``, with each chunk passed as slices of the
    memory-mapped views (``access_data`` converts them once, as it does
    the recorder's batches)."""
    if fast_replay_supported(hierarchy, stored):
        replay_stream(hierarchy, stored)
        return
    access = hierarchy.access_data
    # Plain views: slicing then skips the memmap subclass machinery.
    lines, counts = np.asarray(stored.lines), np.asarray(stored.counts)

    def dict_step(start: int, end: int, writes: int) -> None:
        access(lines[start:end], counts[start:end], writes)

    _replay_chunks(stored, dict_step)


def replay_stream(hierarchy, stored: StoredTrace) -> None:
    """Replay the whole stored stream into ``hierarchy`` through the
    numpy step (see the module docstring).

    ``hierarchy`` must be fresh, as :meth:`Simulator.replay` builds it:
    the stored shadow annotation starts from an empty cache.  Replay
    hierarchies carry no L2 page mapper (a mapped run is never stored),
    so L1 misses go to the L2 untranslated.
    """
    step = _DirectMappedStep(hierarchy, stored)
    _replay_chunks(stored, step)
    if step.shadow_offset != len(stored.shadow_hits):
        raise _annotation_mismatch(len(stored.shadow_hits), step.shadow_offset)


def _annotation_mismatch(bits: int, entries: int) -> ValueError:
    return ValueError(
        "stored shadow annotation does not match the stream "
        f"({bits} bits for {entries} entries)"
    )


class _DirectMappedStep:
    """The numpy step: one chunk of a direct-mapped L1D replay per call.

    Carries each set's resident line (``contents``, set by set, in
    :func:`set_lru_misses`'s layout), the previous chunk's last line
    (``last``) and the L1D's compulsory history
    (``l1d._seen``) from chunk to chunk; ``shadow_offset`` counts the
    stored shadow bits consumed so far.
    """

    def __init__(self, hierarchy, stored: StoredTrace) -> None:
        self.hierarchy = hierarchy
        # Plain views of the memory-mapped arrays: no copy, and slicing
        # skips the memmap subclass machinery.
        self.lines = np.asarray(stored.lines)
        self.counts = np.asarray(stored.counts)
        self.shadow_hits = np.asarray(stored.shadow_hits)
        self.contents = np.empty(0, dtype=np.int64)
        self.last = None
        self.shadow_offset = 0

    def __call__(self, start: int, end: int, writes: int) -> None:
        hierarchy = self.hierarchy
        refs = int(np.sum(self.counts[start:end], dtype=np.int64))
        hierarchy.count_data(refs, writes)
        hierarchy.l1d.stats.accesses += refs
        if end > start:
            missed = self._l1_misses(self.lines[start:end])
            if len(missed):
                hierarchy.l2.process(missed >> hierarchy._l2_shift)
        observer = hierarchy.observer
        if observer is not None:
            observer.on_batch(hierarchy, refs)

    def _l1_misses(self, chunk: np.ndarray) -> np.ndarray:
        """Simulate one non-empty chunk in the L1D; book its misses by
        class and return the missed lines in order."""
        l1 = self.hierarchy.l1d
        keep = run_heads(chunk)
        keep[0] = self.last is None or chunk[0] != self.last
        self.last = chunk[-1]
        lines = chunk[keep]
        n = len(lines)
        offset = self.shadow_offset
        shadow = self.shadow_hits[offset:offset + n]
        if len(shadow) != n:
            raise _annotation_mismatch(len(self.shadow_hits), offset + n)
        self.shadow_offset = offset + n
        if not n:
            return lines  # the chunk only repeats the previous line
        miss, self.contents = set_lru_misses(lines, self.contents, l1.set_mask, 1)
        missed = lines[miss]
        classify_misses(missed, shadow[miss] != 0, l1._seen, l1.stats)
        return missed
