"""One cache level with hit/miss statistics and single-run miss classification.

Classification follows Hill & Smith (and the paper's modified DineroIII):

* **compulsory** — the line has never been referenced before;
* **capacity** — the reference would also miss in a fully-associative LRU
  cache of equal capacity;
* **conflict** — everything else (the fully-associative cache would have
  hit, so only the set mapping is to blame).

The three classes always sum to the total miss count.
"""

from __future__ import annotations

from collections import OrderedDict
from itertools import repeat
from dataclasses import dataclass, field

import numpy as np

from repro.cache.config import CacheConfig

#: Smallest batch a direct-mapped cache simulates through the array
#: path of :meth:`ClassifyingCache.process`; smaller batches take the
#: dict loop.  Cut into equal slices, the first 1.5M entries of the
#: seed-1996 ``simbench`` cold-tables L1D stream took 2.06 times the
#: dict loop's time on the array path at 256 entries a batch, 1.30 at
#: 512, 0.88 at 1,024 and 0.54 at 4,096 (min of 3, shared 2-CPU host):
#: below the crossover the array path's per-batch set-up (two sorts,
#: reading and writing back the sets and the shadow) outweighs the
#: per-entry work it saves.  A batch the trace recorder cuts at its
#: threshold holds at least 4,096 entries; only its drains (end of run,
#: profiler scope changes) can be smaller.
ARRAY_KERNEL_ENTRIES = 1024

#: Resident line of an empty set in the array path.  Line numbers are
#: byte addresses shifted right, and the hierarchy rejects negative
#: lines, so no line equals it.
EMPTY = -1


@dataclass
class LevelStats:
    """Access statistics for one cache level.

    ``accesses`` counts every reference presented to the level (for L1,
    one per element reference; for L2, one per L1 miss).  Misses are
    partitioned into the three classes.
    """

    accesses: int = 0
    misses: int = 0
    compulsory: int = 0
    capacity: int = 0
    conflict: int = 0

    @property
    def hits(self) -> int:
        return self.accesses - self.misses

    @property
    def miss_rate(self) -> float:
        """Misses per access; 0.0 when nothing was accessed."""
        if self.accesses == 0:
            return 0.0
        return self.misses / self.accesses

    def merge(self, other: "LevelStats") -> None:
        """Accumulate another stats object into this one."""
        self.accesses += other.accesses
        self.misses += other.misses
        self.compulsory += other.compulsory
        self.capacity += other.capacity
        self.conflict += other.conflict

    def as_dict(self) -> dict[str, int]:
        return {
            "accesses": self.accesses,
            "misses": self.misses,
            "compulsory": self.compulsory,
            "capacity": self.capacity,
            "conflict": self.conflict,
        }


def run_heads(lines: np.ndarray) -> np.ndarray:
    """Mask of the entries of ``lines`` that differ from their predecessor."""
    head = np.empty(len(lines), dtype=bool)
    if len(lines):
        head[0] = True
        np.not_equal(lines[1:], lines[:-1], out=head[1:])
    return head


def lru_hits(
    contents: np.ndarray, lines: np.ndarray, capacity: int
) -> tuple[np.ndarray, np.ndarray]:
    """Fully-associative LRU verdicts on a stream, array-at-a-time.

    ``contents`` are the lines the LRU cache of ``capacity`` lines holds
    before the stream, least recently used first; ``lines`` are the
    accesses, all non-negative.  Returns the hit mask over ``lines`` and
    the cache's contents after them, least recently used first.  The
    spec is :func:`repro.cache.reference.shadow_hit_bits`.

    An LRU cache of C lines holds exactly the C most recently used
    distinct lines (Mattson et al.'s stack property), so an access hits
    exactly when its line's previous use p lies at or above the
    *boundary* L, the last use of the C-th most recently used line.
    The contents go in front of the stream, below C - k placeholder
    positions when they hold only k < C lines, so the cache always
    holds C lines and evicting a placeholder is filling an empty slot.
    One stable argsort then gives every access its previous use and
    every position the next use of its line.  L moves only on an access
    with p <= L (a miss, or a hit on the LRU line itself), to the next
    position above it whose line has not been used since.  L always
    lies at least C positions back (the C lines at or above it are
    distinct), so an access less than C positions after its previous
    use (i - p < C) hits above L and never moves it, and only the
    others reach the Python loop; and L only ever stops at positions
    whose line then stays unused for at least C accesses, so the loop
    scans only those.
    """
    pad = capacity - len(contents)
    total = capacity + len(lines)
    stream = np.empty(total, dtype=np.int64)
    stream[:pad] = np.arange(-pad, 0)
    stream[pad:capacity] = contents
    stream[capacity:] = lines
    order = np.argsort(stream, kind="stable")
    ordered = stream[order]
    again = ordered[1:] == ordered[:-1]
    earlier = order[:-1][again]
    later = order[1:][again]
    never = total + capacity
    previous = np.full(total, -1, dtype=np.int64)
    previous[later] = earlier
    following = np.full(total, never, dtype=np.int64)
    following[earlier] = later
    position = np.arange(total)

    candidates = capacity + np.flatnonzero(
        position[capacity:] - previous[capacity:] >= capacity
    )
    stops = np.flatnonzero(following - position >= capacity)
    stop_at = stops.tolist()
    stop_next = following[stops].tolist()
    boundary = stop = 0  # stop_at[0] == 0: the oldest slot
    missed: list[int] = []
    miss = missed.append
    for index, last in zip(candidates.tolist(), previous[candidates].tolist()):
        if last > boundary:
            continue
        if last < boundary:
            miss(index)
        stop += 1
        while stop_next[stop] <= index:
            stop += 1
        boundary = stop_at[stop]

    hits = np.ones(len(lines), dtype=bool)
    hits[np.array(missed, dtype=np.int64) - capacity] = False
    kept = np.flatnonzero(following == never)[-capacity:]
    return hits, stream[kept[kept >= pad]]


def direct_mapped_misses(
    lines: np.ndarray,
    shadow_hit: np.ndarray,
    resident: np.ndarray,
    set_mask: int,
    seen: set[int],
    stats: LevelStats,
) -> np.ndarray:
    """Simulate the accesses ``lines`` (non-empty, no two consecutive
    equal) in a direct-mapped cache; return the missed lines in order.

    ``resident`` holds each set's line (:data:`EMPTY` for none) and is
    updated in place; a miss on a line outside the compulsory history
    ``seen`` is compulsory and joins it, and the other misses split
    capacity/conflict on ``shadow_hit``, the fully-associative shadow's
    verdict per access.  The misses and their classes are added to
    ``stats``.  Live runs pass :func:`lru_hits`'s verdicts
    (:meth:`ClassifyingCache.process`), replay the stored annotation
    (:mod:`repro.trace.replay`).
    """
    # Group accesses by set with a stable sort (set indices in the
    # narrowest unsigned type: numpy radix-sorts 8- and 16-bit keys);
    # an access misses exactly when it differs from the line before it
    # in its set — the resident line, for the set's first access.  The
    # set's last access stays resident.
    n = len(lines)
    sets = (lines & set_mask).astype(np.min_scalar_type(set_mask))
    order = np.argsort(sets, kind="stable")
    sorted_sets = sets[order]
    sorted_lines = lines[order]
    head = np.empty(n, dtype=bool)
    head[0] = True
    np.not_equal(sorted_sets[1:], sorted_sets[:-1], out=head[1:])
    before = np.empty(n, dtype=np.int64)
    before[1:] = sorted_lines[:-1]
    before[head] = resident[sorted_sets[head]]
    tail = np.empty(n, dtype=bool)
    tail[:-1] = head[1:]
    tail[-1] = True
    resident[sorted_sets[tail]] = sorted_lines[tail]
    miss = np.empty(n, dtype=bool)
    miss[order] = sorted_lines != before

    # Classification, as the dict loop does it.  A first-ever line
    # cannot hit in the shadow, so the sum check below also checks the
    # verdicts against the history.
    missed = lines[miss]
    n_misses = len(missed)
    if not n_misses:
        return missed
    shadow_hit = shadow_hit[miss]
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

    stats.misses += n_misses
    stats.compulsory += n_compulsory
    stats.capacity += n_capacity
    stats.conflict += n_conflict
    return missed


@dataclass
class ClassifyingCache:
    """A set-associative LRU cache paired with its classification shadow.

    Both LRU structures are ordered least recently used first: ``sets``
    holds one dict per set (an ``OrderedDict`` when a set holds more
    than one line), and ``shadow`` is the fully-associative LRU of
    equal capacity, an ``OrderedDict``.  The per-access model of the
    same semantics is :mod:`repro.cache.reference`.
    """

    config: CacheConfig
    stats: LevelStats = field(default_factory=LevelStats)

    def __post_init__(self) -> None:
        self.set_mask = self.config.num_sets - 1
        # A direct-mapped set holds at most one line, so it has no
        # recency order to keep.
        make_set = dict if self.config.associativity == 1 else OrderedDict
        self.sets: list[dict[int, None]] = [
            make_set() for _ in range(self.config.num_sets)
        ]
        self.shadow: OrderedDict[int, None] = OrderedDict()
        self.shadow_capacity = self.config.num_lines
        self._seen: set[int] = set()
        #: Misses of the fully-associative shadow (including shadow
        #: misses on real-cache hits, which the classification ignores).
        #: Feeds the cache oracle's LRU stack-inclusion check, and stays
        #: exact on every path.
        self.shadow_misses = 0
        #: Where the shadow missed in the last :meth:`process` batch:
        #: the batch positions, in order, of the entries it missed on
        #: (a list from the dict loop, an int64 array from the array
        #: path).  Only a direct-mapped cache records them (the trace
        #: store's shadow annotation is the direct-mapped replay's
        #: input); ``None`` for a set-associative cache.
        self.shadow_miss_positions: list[int] | np.ndarray | None = None

    def process(
        self,
        lines,
        counts: list[int] | None = None,
        *,
        accesses: int | None = None,
    ) -> list[int]:
        """Process a batch of line references; return the lines that missed.

        ``lines`` is a list of ints or an int64 array, and must already
        be run-length compressed (no two consecutive equal entries) if
        ``counts`` is given; ``counts[i]`` is how many consecutive
        references entry ``i`` stands for.  A caller that already has
        the batch's reference total passes it as ``accesses`` instead of
        ``counts`` (the hierarchy takes it from one numpy sum).  The
        returned miss list preserves order and multiplicity, ready to
        feed the next level.

        This is the simulator's hot path, and has two implementations
        of the same semantics, each guarded by the golden-equivalence
        suite against :mod:`repro.cache.reference`:

        * the **array path**: a direct-mapped cache (both L1s on the
          R8000) simulates a batch of at least
          :data:`ARRAY_KERNEL_ENTRIES` entries in numpy —
          :func:`lru_hits` gives the shadow's verdicts from each
          access's previous use, and :func:`direct_mapped_misses`, the
          code stored-trace replay runs, the real cache and the
          classification.  It reads ``sets`` and ``shadow`` when the
          batch starts and writes them back when it ends, so audits see
          the same structures whichever path ran;
        * the **dict loop**, for every other batch, with locals bound
          outside the loop: the access total is hoisted out of it; a
          hit refreshes LRU recency with ``OrderedDict.move_to_end``
          and an eviction is ``popitem(last=False)``, both O(1); a
          run-length fast path skips consecutive duplicate lines (a
          line referenced twice in a row is already MRU in both
          structures, so the repeat is a guaranteed hit with no state
          to update); and a direct-mapped cache takes a dedicated loop
          in which a real-cache hit does no set mutation at all.

        A direct-mapped cache also leaves the batch positions of its
        shadow misses in :attr:`shadow_miss_positions` (one list append
        per shadow miss in the loop), which a trace tap stores as the
        shadow annotation (:class:`repro.trace.store.TraceCapture`).
        """
        stats = self.stats
        # Run lengths only scale the access total; settle it up front.
        if accesses is None:
            accesses = len(lines) if counts is None else sum(counts)
        stats.accesses += accesses

        associativity = self.config.associativity
        if associativity == 1 and len(lines) >= ARRAY_KERNEL_ENTRIES:
            return self._process_array(np.asarray(lines, dtype=np.int64))
        if isinstance(lines, np.ndarray):
            lines = lines.tolist()

        seen = self._seen
        shadow_lines = self.shadow
        shadow_capacity = self.shadow_capacity
        refresh = shadow_lines.move_to_end
        evict = shadow_lines.popitem
        sets = self.sets
        set_mask = self.set_mask
        misses: list[int] = []
        misses_append = misses.append

        n_misses = 0
        n_compulsory = 0
        n_capacity = 0
        n_conflict = 0
        n_shadow_misses = 0

        previous = None
        if associativity == 1:
            # Direct-mapped loop: a hit needs no recency bookkeeping.
            self.shadow_miss_positions = shadow_miss_positions = []
            shadow_missed = shadow_miss_positions.append
            for index, line in enumerate(lines):
                if line == previous:
                    continue  # guaranteed hit, already MRU everywhere
                previous = line
                # Shadow (fully-associative LRU of equal capacity).
                if line in shadow_lines:
                    shadow_hit = True
                    refresh(line)
                else:
                    shadow_hit = False
                    shadow_missed(index)
                    if len(shadow_lines) >= shadow_capacity:
                        evict(False)
                    shadow_lines[line] = None
                # Real cache: one line per set, hit leaves it untouched.
                cache_set = sets[line & set_mask]
                if line in cache_set:
                    continue
                if cache_set:
                    cache_set.clear()
                cache_set[line] = None
                n_misses += 1
                misses_append(line)
                if line not in seen:
                    seen.add(line)
                    n_compulsory += 1
                elif not shadow_hit:
                    n_capacity += 1
                else:
                    n_conflict += 1
            n_shadow_misses = len(shadow_miss_positions)
        else:
            for line in lines:
                if line == previous:
                    continue  # guaranteed hit, already MRU everywhere
                previous = line
                # Shadow (fully-associative LRU of equal capacity).
                if line in shadow_lines:
                    shadow_hit = True
                    refresh(line)
                else:
                    shadow_hit = False
                    n_shadow_misses += 1
                    if len(shadow_lines) >= shadow_capacity:
                        evict(False)
                    shadow_lines[line] = None
                # Real cache.
                cache_set = sets[line & set_mask]
                if line in cache_set:
                    cache_set.move_to_end(line)
                    continue
                if len(cache_set) >= associativity:
                    cache_set.popitem(False)
                cache_set[line] = None
                n_misses += 1
                misses_append(line)
                if line not in seen:
                    seen.add(line)
                    n_compulsory += 1
                elif not shadow_hit:
                    n_capacity += 1
                else:
                    n_conflict += 1

        stats.misses += n_misses
        stats.compulsory += n_compulsory
        stats.capacity += n_capacity
        stats.conflict += n_conflict
        self.shadow_misses += n_shadow_misses
        return misses

    def _process_array(self, lines: np.ndarray) -> list[int]:
        """The array path of :meth:`process` for a direct-mapped cache:
        the statistics, shadow miss positions and state the dict loop
        would leave."""
        heads = np.flatnonzero(run_heads(lines))
        lines = lines[heads]
        shadow = self.shadow
        shadow_hit, contents = lru_hits(
            np.fromiter(shadow, dtype=np.int64, count=len(shadow)),
            lines,
            self.shadow_capacity,
        )
        self.shadow_miss_positions = positions = heads[~shadow_hit]
        self.shadow_misses += len(positions)
        shadow.clear()
        shadow.update(dict.fromkeys(contents.tolist()))

        sets = self.sets
        was = np.fromiter(
            map(next, map(iter, sets), repeat(EMPTY)), dtype=np.int64,
            count=len(sets),
        )
        resident = was.copy()
        missed = direct_mapped_misses(
            lines, shadow_hit, resident, self.set_mask, self._seen, self.stats
        )
        changed = np.flatnonzero(resident != was)
        for index, line in zip(changed.tolist(), resident[changed].tolist()):
            cache_set = sets[index]
            cache_set.clear()
            cache_set[line] = None
        return missed.tolist()

    def flush(self) -> None:
        """Empty both the real cache and the shadow.

        Statistics and the compulsory-miss history are preserved: flushing
        models losing residency, not forgetting that a line was ever
        touched.
        """
        for cache_set in self.sets:
            cache_set.clear()
        self.shadow.clear()

    def reset(self) -> None:
        """Empty the caches and zero all statistics and history."""
        self.flush()
        self._seen.clear()
        self.shadow_misses = 0
        self.stats = LevelStats()

    @property
    def lines_ever_touched(self) -> int:
        """Distinct lines referenced since the last :meth:`reset` — always
        equal to the compulsory miss count (a useful test invariant)."""
        return len(self._seen)

    def set_violations(self) -> list[str]:
        """Broken set-associative LRU invariants (empty when sound): a set
        over its associativity, or a line stored in a set it does not map
        to.  O(cache size) — for the oracle's audits, not the access path."""
        ways, mask = self.config.associativity, self.set_mask
        violations = []
        for index, cache_set in enumerate(self.sets):
            if len(cache_set) > ways:
                violations.append(f"set {index} holds {len(cache_set)} lines (associativity {ways})")
            for line in cache_set:
                if line & mask != index:
                    violations.append(f"line {line:#x} stored in set {index}, maps to set {line & mask}")
        return violations

    def shadow_violations(self) -> list[str]:
        """Broken shadow invariants: over-occupancy is the only one a dict
        can break (duplicates are impossible by construction)."""
        if len(self.shadow) > self.shadow_capacity:
            return [f"holds {len(self.shadow)} lines (capacity {self.shadow_capacity})"]
        return []
