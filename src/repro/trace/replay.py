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
  produces.
* The **numpy step** (:func:`replay_stream`) takes a direct-mapped L1D
  (both paper machines' R8000) whose only sidecar, if any, is an
  observer — the telemetry sampler, which reads statistics only.  This
  is how saved campaigns replay.

The numpy step replaces the dict kernel's per-entry loop for the L1D,
the level that sees every reference:

* consecutive-duplicate entries are guaranteed hits with no state
  change, so each chunk is deduplicated with one vectorized compare —
  its first entry against the previous chunk's last line, which keeps
  the chunk aligned with the stored shadow annotation;
* a *direct-mapped* cache has no LRU state — an access hits exactly
  when the previous access to its set was the same line — so hits and
  misses fall out of one stable sort by set index and two shifted
  compares, with each set's resident line carried in from the previous
  chunk;
* a miss is compulsory exactly when its line is new to the L1D's
  compulsory history (``l1d._seen``), as in the dict kernel;
* the capacity/conflict split needs the fully-associative shadow, whose
  LRU state *is* inherently sequential — which is why the container
  ships the live kernel's per-entry shadow verdicts, recorded by the
  capture tap as the stream was simulated
  (:func:`repro.trace.store.shadow_annotation`).  A set-associative
  L1D's object ships none, and replays through the dict step.

After each chunk the numpy step applies the L1 statistics and
read/write counts ``access_data`` would have applied, forwards the
chunk's L1 misses through the ordinary ``ClassifyingCache.process`` for
the L2 (any associativity; that stream is one to two orders of
magnitude smaller), and calls the observer.  It carries only three
things from chunk to chunk — each set's resident line, the previous
chunk's last line and the compulsory history — so the rest of its
memory is O(chunk), not O(stream).  The L1D's set and shadow dicts
stay empty: nothing that feeds
:meth:`~repro.cache.hierarchy.CacheHierarchy.snapshot` or the sampler
reads them.
"""

from __future__ import annotations

import numpy as np

from repro.trace.store import StoredTrace, dedup_mask

#: Replay chunk size: stored batches are coalesced until at least this
#: many run-length entries accumulate, then fed as one kernel batch.
REPLAY_CHUNK_LINES = 1 << 16

#: Resident line of an empty set in the numpy step.  Line numbers are
#: byte addresses shifted right, and the allocator's addresses are
#: non-negative, so no line equals it.
_EMPTY = -1


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
    ``access_data``, with each chunk sliced from the memory-mapped views
    as lists, the kernel's fastest input form."""
    if fast_replay_supported(hierarchy, stored):
        replay_stream(hierarchy, stored)
        return
    access = hierarchy.access_data
    lines, counts = stored.lines, stored.counts

    def dict_step(start: int, end: int, writes: int) -> None:
        access(lines[start:end].tolist(), counts[start:end].tolist(), writes)

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

    Carries each set's resident line (``resident``), the previous
    chunk's last line (``last``) and the L1D's compulsory history
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
        l1 = hierarchy.l1d
        self.resident = np.full(l1.config.num_sets, _EMPTY, dtype=np.int64)
        # Set indices in the narrowest unsigned type: numpy's stable
        # argsort radix-sorts 8- and 16-bit integers.
        self.set_dtype = np.min_scalar_type(l1.set_mask)
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
                shift = hierarchy._l2_shift
                if shift:
                    missed = missed >> shift
                hierarchy.l2.process(missed.tolist())
        observer = hierarchy.observer
        if observer is not None:
            observer.on_batch(hierarchy, refs)

    def _l1_misses(self, chunk: np.ndarray) -> np.ndarray:
        """Simulate one non-empty chunk in the L1D; book its misses by
        class and return the missed lines in order."""
        l1 = self.hierarchy.l1d
        keep = dedup_mask(chunk)
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

        # Direct-mapped hit/miss: group accesses by set with a stable
        # sort; an access misses exactly when it differs from the line
        # before it in its set — the resident line, for the set's first
        # access in the chunk.  The set's last access stays resident.
        sets = (lines & l1.set_mask).astype(self.set_dtype)
        order = np.argsort(sets, kind="stable")
        sorted_sets = sets[order]
        sorted_lines = lines[order]
        head = np.empty(n, dtype=bool)
        head[0] = True
        np.not_equal(sorted_sets[1:], sorted_sets[:-1], out=head[1:])
        before = np.empty(n, dtype=np.int64)
        before[1:] = sorted_lines[:-1]
        before[head] = self.resident[sorted_sets[head]]
        tail = np.empty(n, dtype=bool)
        tail[:-1] = head[1:]
        tail[-1] = True
        self.resident[sorted_sets[tail]] = sorted_lines[tail]
        miss = np.empty(n, dtype=bool)
        miss[order] = sorted_lines != before

        # Classification, as the dict kernel does it: a miss on a line
        # outside the compulsory history is compulsory; the others split
        # capacity/conflict on the stored shadow verdict.  A first-ever
        # line cannot hit in the shadow, so the sum check below also
        # checks the annotation against the history.
        missed = lines[miss]
        n_misses = len(missed)
        if not n_misses:
            return missed
        shadow_hit = shadow[miss] != 0
        seen = l1._seen
        distinct, first = np.unique(missed, return_index=True)
        new = ~np.fromiter(
            map(seen.__contains__, distinct.tolist()), dtype=bool,
            count=len(distinct),
        )
        new_lines = distinct[new].tolist()
        seen.update(new_lines)
        capacity = ~shadow_hit
        capacity[first[new]] = False
        n_compulsory = len(new_lines)
        n_capacity = int(np.count_nonzero(capacity))
        n_conflict = int(np.count_nonzero(shadow_hit))
        assert n_compulsory + n_capacity + n_conflict == n_misses

        stats = l1.stats
        stats.misses += n_misses
        stats.compulsory += n_compulsory
        stats.capacity += n_capacity
        stats.conflict += n_conflict
        return missed
