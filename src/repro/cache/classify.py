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
from itertools import chain
from dataclasses import dataclass, field

import numpy as np

from repro.cache.config import CacheConfig

#: Smallest batch :meth:`ClassifyingCache.process` simulates through
#: its array path; smaller batches, and batches shorter than the
#: level's line count, take the dict loop.  Cut into equal slices, the
#: first 1.5M entries of the seed-1996 ``simbench`` cold-tables L1D
#: stream took 2.06 times the dict loop's time on the array path at 256
#: entries a batch, 1.30 at 512, 0.88 at 1,024 and 0.54 at 4,096, and
#: the cold-tables L2 stream 2.36 times at 512, 1.02 at 1,024, 0.75 at
#: 2,048 and 0.50 at 4,096 (shared 2-CPU host): below the crossover the
#: array path's per-batch set-up (its sorts, and :func:`lru_hits`'s
#: padding to the level's capacity) outweighs the per-entry work it
#: saves.  A batch the trace recorder cuts at its threshold holds at
#: least 4,096 entries; only its drains (end of run, profiler scope
#: changes) can be smaller.
ARRAY_KERNEL_ENTRIES = 1024


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


def stable_order(values: np.ndarray) -> np.ndarray:
    """``np.argsort(values, kind="stable")`` for an int64 array, faster.

    A span that fits 16 bits is radix-sorted as uint16 offsets from the
    minimum.  A wider one sorts the keys ``offset * n + position`` with
    numpy's default sort: the keys are unique, so any sort returns the
    stable order, and the default one is several times faster than the
    stable merge sort.  Only a span too wide for those keys to fit int64
    takes the stable sort itself.
    """
    n = len(values)
    if not n:
        return np.empty(0, dtype=np.intp)
    low = int(values.min())
    span = int(values.max()) - low
    if span < 1 << 16:
        return np.argsort((values - low).astype(np.uint16), kind="stable")
    if (span + 1) * n <= 1 << 63:
        return np.argsort((values - low) * n + np.arange(n))
    return np.argsort(values, kind="stable")


def reuse_links(stream: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each position's previous use of its value (-1 for none) and next
    use (``len(stream)`` for none), from one stable sort."""
    total = len(stream)
    order = stable_order(stream)
    again = stream[order[1:]] == stream[order[:-1]]
    earlier = order[:-1][again]
    later = order[1:][again]
    previous = np.full(total, -1, dtype=np.int64)
    previous[later] = earlier
    following = np.full(total, total, dtype=np.int64)
    following[earlier] = later
    return previous, following


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
    One stable sort (:func:`reuse_links`) then gives every access its
    previous use and every position the next use of its line.  L moves
    only on an access with p <= L (a miss, or a hit on the LRU line
    itself), to the next position above it whose line has not been used
    since.  L always lies at least C positions back (the C lines at or
    above it are distinct), so an access less than C positions after
    its previous use (i - p < C) hits above L and never moves it, and
    only the others reach the Python loop; and L only ever stops at
    positions whose line then stays unused for at least C accesses, so
    the loop scans only those.
    """
    pad = capacity - len(contents)
    total = capacity + len(lines)
    stream = np.empty(total, dtype=np.int64)
    stream[:pad] = np.arange(-pad, 0)
    stream[pad:capacity] = contents
    stream[capacity:] = lines
    previous, following = reuse_links(stream)
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
    kept = np.flatnonzero(following == total)[-capacity:]
    return hits, stream[kept[kept >= pad]]


#: Most window positions :func:`window_hits` gathers at once, so its
#: temporaries stay a few MB however many accesses it counts and however
#: wide their windows grow: on a 1,024-line fully-associative level, a
#: 64 Ki-entry batch of random lines over 800 gathered 419 MB at once.
WINDOW_BLOCK = 1 << 20


def last_per_group(keys: np.ndarray, ways: int) -> np.ndarray:
    """Mask of the last ``ways`` entries of each run of equal ``keys``."""
    keep = np.ones(len(keys), dtype=bool)
    np.not_equal(keys[ways:], keys[:-ways], out=keep[:-ways])
    return keep


def window_hits(
    accesses: np.ndarray, previous: np.ndarray, following: np.ndarray,
    ways: int,
) -> np.ndarray:
    """Whether fewer than ``ways`` distinct lines were used between each
    access and its previous use, for accesses at least ``ways``
    positions after it.

    A position j between the two holds a distinct line exactly when it
    is that line's last use before the access, that is, when its next
    use ``following[j]`` lies after the access.  The positions are
    counted backwards from the access in windows of doubling width, and
    an access leaves the count once it reaches ``ways`` (a miss) or its
    window covers the whole gap (a hit).  Window positions at or below
    the previous use count as that use, whose next use is the access
    itself, so they add nothing.
    """
    hits = np.zeros(len(accesses), dtype=bool)
    index = np.arange(len(accesses))
    count = np.zeros(len(accesses), dtype=np.int64)
    scanned, width = 0, ways
    while len(index):
        offsets = np.arange(scanned, width)
        rows = max(1, WINDOW_BLOCK // len(offsets))
        for start in range(0, len(index), rows):
            block = slice(start, start + rows)
            at = accesses[block, None]
            back = np.maximum(at - 1 - offsets, previous[block, None])
            count[block] += np.count_nonzero(following[back] > at, axis=1)
        open_ = count < ways
        covered = accesses - previous - 1 <= width
        hits[index[open_ & covered]] = True
        more = open_ & ~covered
        index, count = index[more], count[more]
        accesses, previous = accesses[more], previous[more]
        scanned, width = width, 2 * width
    return hits


def set_lru_misses(
    lines: np.ndarray, contents: np.ndarray, set_mask: int, ways: int
) -> tuple[np.ndarray, np.ndarray]:
    """Set-associative LRU verdicts on a stream, array-at-a-time.

    ``contents`` are the lines the cache holds before the stream, set by
    set in ascending set index, each set's least recently used first;
    ``lines`` are the accesses.  Returns the miss mask over
    ``lines`` and the cache's contents after them, in the same layout.
    The spec is :class:`repro.cache.reference.ReferenceSetAssociativeCache`;
    a direct-mapped cache is ``ways == 1``.

    Each set is an LRU stack of its own (Mattson et al.), so an access
    hits exactly when fewer than ``ways`` distinct lines of its set were
    used since its line's previous use.  A stable sort by set index (in
    the narrowest unsigned type, which numpy radix-sorts) puts each
    set's contents in front of its accesses, in order.  An entry equal
    to the one before it is an MRU hit that changes nothing, and is
    dropped.  With one way every remaining access misses: it differs
    from its set's resident line.  Otherwise :func:`reuse_links` gives
    each remaining access its previous use p: with none it misses; fewer
    than ``ways`` entries between p and the access (all of its set) is
    a sure hit; the few others are counted by :func:`window_hits`.  The
    new contents are each set's last ``ways`` entries whose line is not
    used again, in order.
    """
    resident = len(contents)
    stream = np.concatenate((contents, lines))
    keys = (stream & set_mask).astype(np.min_scalar_type(set_mask))
    order = np.argsort(keys, kind="stable")
    ordered = stream[order]
    ordered_keys = keys[order]
    changed = run_heads(ordered)
    if ways == 1:
        miss_ordered = changed
        contents = ordered[last_per_group(ordered_keys, 1)]
    else:
        heads = np.flatnonzero(changed)
        reduced = ordered[heads]
        previous, following = reuse_links(reduced)
        gap = np.arange(len(reduced)) - previous - 1
        hit = (previous >= 0) & (gap < ways)
        far = np.flatnonzero((previous >= 0) & (gap >= ways))
        hit[far] = window_hits(far, previous[far], following, ways)
        miss_ordered = np.zeros(len(stream), dtype=bool)
        miss_ordered[heads] = ~hit
        final = np.flatnonzero(following == len(reduced))
        final_keys = ordered_keys[heads[final]]
        contents = reduced[final[last_per_group(final_keys, ways)]]
    miss = np.empty(len(stream), dtype=bool)
    miss[order] = miss_ordered
    return miss[resident:], contents


def classify_misses(
    missed: np.ndarray, shadow_hit: np.ndarray, seen: set[int],
    stats: LevelStats,
) -> None:
    """Add the misses ``missed`` (the lines, in order) to ``stats`` by
    class, as the dict loop does: a miss on a line outside the
    compulsory history ``seen`` is compulsory and joins it, and the
    others split capacity/conflict on ``shadow_hit``, the
    fully-associative shadow's verdict per miss: :func:`lru_hits`'s, or
    those a stored trace's annotation supplies to
    :meth:`ClassifyingCache.process`."""
    n_misses = len(missed)
    if not n_misses:
        return
    # A first-ever line cannot hit in the shadow, so the sum check
    # below also checks the verdicts against the history.  Each line's
    # first miss heads its run in the stable order (np.unique's
    # return_index, without its merge sort).
    order = stable_order(missed)
    heads = run_heads(missed[order])
    first = order[heads]
    distinct = missed[first]
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


@dataclass
class ClassifyingCache:
    """A set-associative LRU cache paired with its classification shadow.

    Both LRU structures are ``OrderedDict``s ordered least recently used
    first: ``sets`` holds one per set, and ``shadow`` is the
    fully-associative LRU of equal capacity.  The per-access model of
    the same semantics is :mod:`repro.cache.reference`.

    The state lives in one of two forms.  The dict loop of
    :meth:`process` works on the dicts; its array path keeps the real
    cache's contents (every set's lines, set by set, least recently used
    first) and the shadow's as int64 arrays between array batches.
    Reading ``sets`` or ``shadow`` turns arrays into dicts, and an array
    batch turns dicts into arrays, so every reader sees the same
    structures whichever path ran, and a level that stays on one path
    never converts.

    A batch given the shadow's verdicts (``shadow_hits``, as a stored
    trace's replay passes them) simulates no shadow.  The level then has
    no shadow to continue from until :meth:`flush`: ``shadow`` reads
    empty, and a later batch without verdicts raises ``ValueError``.
    """

    config: CacheConfig
    stats: LevelStats = field(default_factory=LevelStats)

    def __post_init__(self) -> None:
        self.set_mask = self.config.num_sets - 1
        self.shadow_capacity = self.config.num_lines
        self._seen: set[int] = set()
        #: Misses of the fully-associative shadow (including shadow
        #: misses on real-cache hits, which the classification ignores).
        #: Feeds the cache oracle's LRU stack-inclusion check, and stays
        #: exact on every path, batches given verdicts included.
        self.shadow_misses = 0
        # The last batch's shadow misses: the dict loop's positions, or
        # the array path's (run-head mask, verdicts) pair, which
        # shadow_miss_positions turns into positions when it is read.
        self._shadow_missed: list[int] | tuple[np.ndarray, np.ndarray] = []
        self.flush()

    @property
    def shadow_miss_positions(self) -> list[int] | np.ndarray:
        """Where the shadow missed in the last :meth:`process` batch: the
        batch positions, in order, of the entries it missed on (a list
        from the dict loop, an int64 array from the array path, computed
        here from the batch's run heads and verdicts).  A trace tap
        stores the L1D's and the L2's as their shadow annotations
        (:class:`repro.trace.store.TraceCapture`)."""
        missed = self._shadow_missed
        if isinstance(missed, tuple):
            heads, hit = missed
            return np.flatnonzero(heads)[~hit]
        return missed

    @property
    def sets(self) -> list[OrderedDict[int, None]]:
        """One dict per set, each least recently used first."""
        if self._sets is None:
            self._to_dicts()
        return self._sets

    @property
    def shadow(self) -> OrderedDict[int, None]:
        """The fully-associative LRU shadow, least recently used first."""
        if self._shadow is None:
            self._to_dicts()
        return self._shadow

    def _to_dicts(self) -> None:
        sets = [OrderedDict() for _ in range(self.config.num_sets)]
        mask = self.set_mask
        for line in self._contents.tolist():
            sets[line & mask][line] = None
        self._sets = sets
        self._shadow = OrderedDict.fromkeys(self._shadow_lines.tolist())
        self._contents = self._shadow_lines = None

    def _to_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """The array state (contents, shadow), turning dicts into it."""
        if self._contents is None:
            sets, shadow = self._sets, self._shadow
            self._contents = np.fromiter(
                chain.from_iterable(sets), dtype=np.int64,
                count=sum(map(len, sets)),
            )
            self._shadow_lines = np.fromiter(
                shadow, dtype=np.int64, count=len(shadow)
            )
            self._sets = self._shadow = None
        return self._contents, self._shadow_lines

    def process(
        self,
        lines,
        counts: list[int] | None = None,
        *,
        accesses: int | None = None,
        shadow_hits: np.ndarray | None = None,
    ) -> list[int] | np.ndarray:
        """Process a batch of line references; return the lines that missed.

        ``lines`` is a list of ints or an int64 array, and must already
        be run-length compressed (no two consecutive equal entries) if
        ``counts`` is given; ``counts[i]`` is how many consecutive
        references entry ``i`` stands for.  A caller that already has
        the batch's reference total passes it as ``accesses`` instead of
        ``counts`` (the hierarchy takes it from one numpy sum).  The
        returned misses (a list, or an int64 array from the array path)
        preserve order and multiplicity, ready to feed the next level.

        ``shadow_hits``, when given, are the fully-associative shadow's
        verdicts on the batch, one per entry :func:`run_heads` keeps
        (nonzero for a hit), as a stored trace's annotations supply
        them (:func:`repro.trace.replay.replay_stream`, and for the L2
        :meth:`repro.cache.hierarchy.CacheHierarchy.access_data`).  The
        batch then
        takes the array path whatever its size, with these verdicts in
        place of :func:`lru_hits`'s, and the level keeps no shadow (see
        the class docstring); ``shadow_misses`` counts the verdicts'
        misses.  Verdicts of the wrong length raise ``ValueError``.

        This is the simulator's hot path, and has two implementations
        of the same semantics, each guarded by the golden-equivalence
        suite against :mod:`repro.cache.reference`:

        * the **array path**, for a batch given verdicts, or of at least
          :data:`ARRAY_KERNEL_ENTRIES` entries and at least the level's
          line count, at any associativity: :func:`lru_hits` gives the
          shadow's verdicts from each access's previous use,
          :func:`set_lru_misses` the real cache's from set-local reuse
          gaps, and :func:`classify_misses` the classes.  It returns the
          missed lines as an int64 array and keeps the level's state as
          arrays (see the class docstring);
        * the **dict loop**, for every other batch, with locals bound
          outside the loop: the access total is hoisted out of it; a
          hit refreshes LRU recency with ``OrderedDict.move_to_end``
          and an eviction is ``popitem(last=False)``, both O(1); and a
          run-length fast path skips consecutive duplicate lines (a
          line referenced twice in a row is already MRU in both
          structures, so the repeat is a guaranteed hit with no state
          to update).

        Both leave the batch positions of the shadow's misses in
        :attr:`shadow_miss_positions` (one list append per shadow miss
        in the loop), which a trace tap stores as the shadow annotation
        (:class:`repro.trace.store.TraceCapture`).
        """
        if shadow_hits is None and self._shadowless:
            raise ValueError(
                f"{self.config.name}: a batch without shadow verdicts after "
                "one with them: the level has no shadow to classify against"
            )
        stats = self.stats
        # Run lengths only scale the access total; settle it up front.
        if accesses is None:
            accesses = len(lines) if counts is None else sum(counts)
        stats.accesses += accesses

        entries = len(lines)
        if shadow_hits is not None or (
            entries >= ARRAY_KERNEL_ENTRIES and entries >= self.shadow_capacity
        ):
            return self._process_array(
                np.asarray(lines, dtype=np.int64), shadow_hits
            )
        if isinstance(lines, np.ndarray):
            lines = lines.tolist()

        seen = self._seen
        shadow_lines = self.shadow
        shadow_capacity = self.shadow_capacity
        refresh = shadow_lines.move_to_end
        evict = shadow_lines.popitem
        sets = self.sets
        set_mask = self.set_mask
        associativity = self.config.associativity
        misses: list[int] = []
        misses_append = misses.append
        self._shadow_missed = shadow_missed = []
        shadow_miss = shadow_missed.append

        n_misses = 0
        n_compulsory = 0
        n_capacity = 0
        n_conflict = 0

        previous = None
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
                shadow_miss(index)
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
        self.shadow_misses += len(shadow_missed)
        return misses

    def _process_array(
        self, lines: np.ndarray, shadow_hits: np.ndarray | None
    ) -> np.ndarray:
        """The array path of :meth:`process`: the misses, statistics,
        shadow verdicts and state the dict loop would leave."""
        heads = run_heads(lines)
        lines = lines[heads]
        contents, shadow = self._to_arrays()
        if shadow_hits is None:
            shadow_hit, self._shadow_lines = lru_hits(
                shadow, lines, self.shadow_capacity
            )
        else:
            shadow_hit = np.asarray(shadow_hits, dtype=bool)
            if len(shadow_hit) != len(lines):
                raise ValueError(
                    f"{len(shadow_hit)} shadow verdicts for a batch of "
                    f"{len(lines)} distinct-run entries"
                )
            self._shadow_lines = np.empty(0, dtype=np.int64)
            self._shadowless = True
        self.shadow_misses += len(lines) - int(np.count_nonzero(shadow_hit))
        self._shadow_missed = (heads, shadow_hit)
        miss, self._contents = set_lru_misses(
            lines, contents, self.set_mask, self.config.associativity
        )
        missed = lines[miss]
        classify_misses(missed, shadow_hit[miss], self._seen, self.stats)
        return missed

    def flush(self) -> None:
        """Empty both the real cache and the shadow.

        Statistics and the compulsory-miss history are preserved: flushing
        models losing residency, not forgetting that a line was ever
        touched.  A level that took shadow verdicts has an empty shadow
        again, so batches without verdicts may follow.
        """
        self._contents = np.empty(0, dtype=np.int64)
        self._shadow_lines = np.empty(0, dtype=np.int64)
        self._sets = self._shadow = None
        self._shadowless = False

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
