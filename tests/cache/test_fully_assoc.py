"""Tests for the fully-associative LRU shadow inside ``ClassifyingCache``.

The shadow is a fully-associative LRU of the level's capacity.  A
one-set configuration makes the real cache fully associative too, so
:meth:`ClassifyingCache.process` reports the fully-associative verdict
and both LRU structures must hold the same lines in the same order.
"""

import pytest
from hypothesis import given, strategies as st

from repro.cache.classify import ClassifyingCache
from repro.cache.config import CacheConfig


def make(capacity):
    return ClassifyingCache(CacheConfig("fa", capacity * 16, 16, capacity))


def access(cache, line):
    """Reference ``line``; ``True`` on a hit (real cache and shadow agree)."""
    shadow_misses = cache.shadow_misses
    hit = not cache.process([line])
    assert hit == (cache.shadow_misses == shadow_misses)
    assert list(cache.sets[0]) == list(cache.shadow)
    return hit


class TestBasics:
    def test_miss_then_hit(self):
        cache = make(4)
        assert access(cache, 10) is False
        assert access(cache, 10) is True

    def test_capacity_enforced(self):
        cache = make(4)
        for line in range(6):
            access(cache, line)
        assert len(cache.shadow) == 4

    def test_eviction_is_lru(self):
        cache = make(2)
        access(cache, 1)
        access(cache, 2)
        access(cache, 1)  # refresh
        access(cache, 3)  # evicts 2
        assert 1 in cache.shadow
        assert 2 not in cache.shadow
        assert 3 in cache.shadow

    def test_flush(self):
        cache = make(2)
        access(cache, 1)
        cache.flush()
        assert len(cache.shadow) == 0
        assert access(cache, 1) is False

    def test_zero_capacity_rejected(self):
        with pytest.raises(ValueError):
            make(0)


class TestAgainstReferenceModel:
    @given(
        accesses=st.lists(st.integers(0, 12), min_size=1, max_size=200),
        capacity=st.sampled_from([1, 2, 4, 8]),
    )
    def test_property_matches_naive_lru_list(self, accesses, capacity):
        """The dict-based cache behaves exactly like a list-based LRU."""
        cache = make(capacity)
        reference: list[int] = []  # LRU order, least recent first
        for line in accesses:
            expected_hit = line in reference
            if expected_hit:
                reference.remove(line)
            elif len(reference) >= capacity:
                reference.pop(0)
            reference.append(line)
            assert access(cache, line) is expected_hit
            assert list(cache.shadow) == reference
