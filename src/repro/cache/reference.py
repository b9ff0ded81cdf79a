"""Reference cache model: naive, per-line, list-based — the executable spec.

The production kernel
(:meth:`repro.cache.classify.ClassifyingCache.process`) is tuned for
throughput — dict-per-set LRU, hoisted access accounting, a run-length
hit fast path, and a numpy path for large batches and for batches
given stored shadow verdicts.  Optimized hot loops rot
silently, so this module keeps a maximally transparent implementation
of the same semantics: one access at a time, every LRU structure a
plain Python list in recency order, no batching tricks anywhere.  The
golden-equivalence suite (``tests/cache/test_kernel_equivalence.py``)
drives both on randomized traces and asserts hit-for-hit,
class-for-class, LRU-order-for-LRU-order agreement, and the kernel
benchmark (``benchmarks/test_sim_bench.py``) times the optimized path
against this one to quantify — and guard — the speedup.

It also holds the specs of the numpy path's two halves.
:class:`ReferenceSetAssociativeCache` is the spec of the real cache's
verdicts and contents (:func:`repro.cache.classify.set_lru_misses`,
whose contents are this class's sets, one after another, each least
recently used first).  :func:`shadow_hit_bits` is the spec of the
shadow's verdicts (:func:`repro.cache.classify.lru_hits`) and of the
trace store's shadow annotations, the L1D's and the L2's, which must
equal the live kernels' verdicts at every associativity: replay feeds
them back to the kernels in place of the shadows.

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

    def flush(self) -> None:
        """Empty both LRU structures, keeping statistics and history."""
        self.real = ReferenceSetAssociativeCache(self.config)
        self._shadow = []


def shadow_hit_bits(dlines: np.ndarray, capacity: int) -> np.ndarray:
    """Fully-associative-LRU hit (1) or miss (0) per entry of a stream,
    from an empty shadow of ``capacity`` lines: the spec of a stored
    trace's shadow annotations, the L1D's over the deduplicated stream
    (:func:`repro.cache.classify.run_heads`) and the L2's over every L1
    miss in order (a repeated line hits), which the store builds from
    the live kernels' verdicts instead
    (:func:`repro.trace.store.shadow_annotation`,
    :func:`repro.trace.store.hit_bytes`)."""
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
