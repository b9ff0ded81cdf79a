"""Reference cache model: naive, per-line, list-based — the executable spec.

The production kernel
(:meth:`repro.cache.classify.ClassifyingCache.process`) is tuned for
throughput — dict-per-set LRU, hoisted access accounting, a run-length
hit fast path, a dedicated direct-mapped loop.  Optimized hot loops rot
silently, so this module keeps a maximally transparent implementation
of the same semantics: one access at a time, every LRU structure a
plain Python list in recency order, no batching tricks anywhere.  The
golden-equivalence suite (``tests/cache/test_kernel_equivalence.py``)
drives both on randomized traces and asserts hit-for-hit,
class-for-class, LRU-order-for-LRU-order agreement, and the kernel
benchmark (``benchmarks/test_sim_bench.py``) times the optimized path
against this one to quantify — and guard — the speedup.

It also holds the spec of the trace store's shadow annotation,
:func:`shadow_hit_bits`, which the store's annotation of the live
kernel's verdicts must equal.

Nothing in the simulator imports this module; it exists only for tests
and benchmarks and favors obviousness over speed.
"""

from __future__ import annotations

import numpy as np

from repro.cache.classify import LevelStats
from repro.cache.config import CacheConfig


class ReferenceSetAssociativeCache:
    """List-per-set LRU cache: the original, obviously-correct layout.

    Each set is a Python list in LRU order (least recent first); a hit
    refreshes recency with ``remove`` + ``append``, O(associativity).
    """

    def __init__(self, config: CacheConfig) -> None:
        self.config = config
        self._set_mask = config.num_sets - 1
        self._sets: list[list[int]] = [[] for _ in range(config.num_sets)]

    def access(self, line: int) -> bool:
        cache_set = self._sets[line & self._set_mask]
        if line in cache_set:
            cache_set.remove(line)
            cache_set.append(line)
            return True
        if len(cache_set) >= self.config.associativity:
            del cache_set[0]
        cache_set.append(line)
        return False

    def lru_order(self, set_index: int) -> list[int]:
        return list(self._sets[set_index])


class ReferenceClassifyingCache:
    """Per-line classification against a list-based fully-associative LRU.

    Mirrors :class:`repro.cache.classify.ClassifyingCache` exactly —
    same statistics object, same Hill & Smith classification — but with
    the slow, transparent data structures the optimized kernel must
    match.
    """

    def __init__(self, config: CacheConfig) -> None:
        self.config = config
        self.stats = LevelStats()
        self.real = ReferenceSetAssociativeCache(config)
        #: Fully-associative LRU shadow as a list, least recent first.
        self._shadow: list[int] = []
        self._seen: set[int] = set()
        self.shadow_misses = 0

    def access(self, line: int) -> bool:
        self.stats.accesses += 1
        if line in self._shadow:
            shadow_hit = True
            self._shadow.remove(line)
            self._shadow.append(line)
        else:
            shadow_hit = False
            self.shadow_misses += 1
            if len(self._shadow) >= self.config.num_lines:
                del self._shadow[0]
            self._shadow.append(line)
        if self.real.access(line):
            return True
        self.stats.misses += 1
        if line not in self._seen:
            self._seen.add(line)
            self.stats.compulsory += 1
        elif not shadow_hit:
            self.stats.capacity += 1
        else:
            self.stats.conflict += 1
        return False

    def process(self, lines: list[int], counts: list[int] | None = None) -> list[int]:
        """Per-line batch processing, one :meth:`access` per entry.

        Semantics contract of the optimized kernel: entry ``i`` stands
        for ``counts[i]`` consecutive references, of which only the
        first can miss.
        """
        misses: list[int] = []
        for i, line in enumerate(lines):
            hit = self.access(line)
            count = counts[i] if counts is not None else 1
            if count > 1:
                self.stats.accesses += count - 1
            if not hit:
                misses.append(line)
        return misses

    def shadow_lru_order(self) -> list[int]:
        return list(self._shadow)


def shadow_hit_bits(dlines: np.ndarray, capacity: int) -> np.ndarray:
    """Fully-associative-LRU hit (1) or miss (0) per entry of a
    deduplicated stream (:func:`repro.trace.store.dedup_mask`), from an
    empty shadow of ``capacity`` lines: the spec of a stored trace's
    shadow annotation, which the store builds from the live kernel's
    verdicts instead (:func:`repro.trace.store.shadow_annotation`)."""
    hits = np.zeros(len(dlines), dtype=np.uint8)
    shadow: list[int] = []
    for index, line in enumerate(dlines.tolist()):
        if line in shadow:
            shadow.remove(line)
            hits[index] = 1
        elif len(shadow) >= capacity:
            del shadow[0]
        shadow.append(line)
    return hits
