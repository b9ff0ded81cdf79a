"""Trace-driven cache simulation with miss classification.

This package reimplements, from scratch, the tool the paper used for its
analysis: a DineroIII-style simulator extended to classify misses as
compulsory, capacity, or conflict *in a single run* (Section 4: "Our
modifications to DineroIII allow it to ... classify misses as compulsory,
capacity, or conflict in a single run").

* :class:`CacheConfig` — geometry of one cache (size, line, associativity).
* :class:`ClassifyingCache` — one level: an LRU set-associative cache and
  the equal-capacity fully-associative shadow that splits capacity from
  conflict misses (Hill & Smith's classification), driven a batch at a
  time by :meth:`ClassifyingCache.process`.
* :class:`CacheHierarchy` — split L1 I/D plus a unified L2, matching the
  SGI machines in the paper.

The per-access, list-based model of the same semantics lives only in
:mod:`repro.cache.reference`, the executable spec the tests hold the
batched kernel to.
"""

from repro.cache.config import CacheConfig
from repro.cache.classify import ClassifyingCache, LevelStats
from repro.cache.hierarchy import CacheHierarchy, HierarchyStats

__all__ = [
    "CacheConfig",
    "ClassifyingCache",
    "LevelStats",
    "CacheHierarchy",
    "HierarchyStats",
]
