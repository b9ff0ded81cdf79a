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

from dataclasses import dataclass, field

from repro.cache.config import CacheConfig


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


@dataclass
class ClassifyingCache:
    """A set-associative LRU cache paired with its classification shadow.

    Both LRU structures are insertion-ordered dicts, least recently used
    first: ``sets`` holds one dict per set, and ``shadow`` is the
    fully-associative LRU of equal capacity.  The per-access model of
    the same semantics is :mod:`repro.cache.reference`.
    """

    config: CacheConfig
    stats: LevelStats = field(default_factory=LevelStats)

    def __post_init__(self) -> None:
        self.set_mask = self.config.num_sets - 1
        self.sets: list[dict[int, None]] = [{} for _ in range(self.config.num_sets)]
        self.shadow: dict[int, None] = {}
        self.shadow_capacity = self.config.num_lines
        self._seen: set[int] = set()
        #: Misses of the fully-associative shadow (including shadow
        #: misses on real-cache hits, which the classification ignores).
        #: Feeds the cache oracle's LRU stack-inclusion check, and stays
        #: exact in both loops.
        self.shadow_misses = 0
        #: Where the shadow missed in the last :meth:`process` batch:
        #: the batch positions, in order, of the entries it missed on.
        #: Only the direct-mapped loop records them (the trace store's
        #: shadow annotation is the direct-mapped replay's input);
        #: ``None`` for a set-associative cache.
        self.shadow_miss_positions: list[int] | None = None

    def process(self, lines: list[int], counts: list[int] | None = None) -> list[int]:
        """Process a batch of line references; return the lines that missed.

        ``lines`` must already be run-length compressed (no two consecutive
        equal entries) if ``counts`` is given; ``counts[i]`` is how many
        consecutive references entry ``i`` stands for.  The returned miss
        list preserves order and multiplicity, ready to feed the next level.

        This is the simulator's hot loop, with locals bound outside the
        loop, and is tuned four ways (each guarded by the
        golden-equivalence suite against :mod:`repro.cache.reference`):

        * the access total is the batch's length (or ``sum(counts)``),
          hoisted out of the loop entirely instead of accumulated per
          entry;
        * both the real sets and the shadow are insertion-ordered dicts,
          so a hit refreshes LRU recency in O(1) rather than via
          ``list.remove``'s O(associativity) scan;
        * a run-length hit fast path skips consecutive duplicate lines
          outright — a line referenced twice in a row is already MRU in
          both structures, so the repeat is a guaranteed hit with no
          state to update;
        * direct-mapped configs (associativity 1, both L1s on the R8000)
          take a dedicated loop in which a real-cache hit does no set
          mutation at all: with at most one resident line per set, the
          LRU recency refresh is the identity.

        The direct-mapped loop also leaves the batch positions of its
        shadow misses in :attr:`shadow_miss_positions`, one list append
        per shadow miss, which a trace tap stores as the shadow
        annotation (:class:`repro.trace.store.TraceCapture`).
        """
        stats = self.stats
        seen = self._seen
        shadow_lines = self.shadow
        shadow_capacity = self.shadow_capacity
        sets = self.sets
        set_mask = self.set_mask
        associativity = self.config.associativity
        misses: list[int] = []
        misses_append = misses.append

        # Run lengths only scale the access total; settle it up front.
        stats.accesses += len(lines) if counts is None else sum(counts)

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
                    del shadow_lines[line]
                    shadow_lines[line] = None
                else:
                    shadow_hit = False
                    shadow_missed(index)
                    if len(shadow_lines) >= shadow_capacity:
                        del shadow_lines[next(iter(shadow_lines))]
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
                    del shadow_lines[line]
                    shadow_lines[line] = None
                else:
                    shadow_hit = False
                    n_shadow_misses += 1
                    if len(shadow_lines) >= shadow_capacity:
                        del shadow_lines[next(iter(shadow_lines))]
                    shadow_lines[line] = None
                # Real cache.
                cache_set = sets[line & set_mask]
                if line in cache_set:
                    del cache_set[line]
                    cache_set[line] = None
                    continue
                if len(cache_set) >= associativity:
                    del cache_set[next(iter(cache_set))]
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
