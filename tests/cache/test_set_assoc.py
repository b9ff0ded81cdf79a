"""Tests for the set-associative LRU cache inside ``ClassifyingCache``.

Driven through the production loop, :meth:`ClassifyingCache.process`:
a reference hits exactly when its miss list comes back empty, and
``sets[i]`` lists set ``i``'s resident lines, least recent first.
"""

from repro.cache.classify import ClassifyingCache
from repro.cache.config import CacheConfig


def make(size=128, line=16, ways=2):
    return ClassifyingCache(CacheConfig("c", size, line, ways))


def access(cache, line):
    """Reference ``line``; ``True`` on a hit."""
    return not cache.process([line])


def resident(cache, line):
    return line in cache.sets[line & cache.set_mask]


def resident_lines(cache):
    return {line for cache_set in cache.sets for line in cache_set}


class TestBasics:
    def test_first_access_misses_second_hits(self):
        cache = make()
        assert access(cache, 0) is False
        assert access(cache, 0) is True

    def test_distinct_sets_do_not_interfere(self):
        cache = make()  # 4 sets
        assert access(cache, 0) is False
        assert access(cache, 1) is False
        assert access(cache, 0) is True
        assert access(cache, 1) is True

    def test_flush_empties_cache(self):
        cache = make()
        access(cache, 0)
        cache.flush()
        assert resident_lines(cache) == set()
        assert access(cache, 0) is False


class TestLRU:
    def test_eviction_removes_least_recent(self):
        cache = make(ways=2)  # set 0 holds lines 0, 4, 8, ... 2 at a time
        access(cache, 0)
        access(cache, 4)
        access(cache, 8)  # evicts 0
        assert resident(cache, 0) is False
        assert resident(cache, 4) is True
        assert resident(cache, 8) is True

    def test_hit_refreshes_recency(self):
        cache = make(ways=2)
        access(cache, 0)
        access(cache, 4)
        access(cache, 0)  # 0 becomes MRU
        access(cache, 8)  # evicts 4, not 0
        assert resident(cache, 0) is True
        assert resident(cache, 4) is False

    def test_lru_order_least_recent_first(self):
        cache = make(ways=2)
        access(cache, 0)
        access(cache, 4)
        assert list(cache.sets[0]) == [0, 4]
        access(cache, 0)
        assert list(cache.sets[0]) == [4, 0]

    def test_direct_mapped_always_evicts(self):
        cache = make(ways=1)
        access(cache, 0)
        access(cache, 8)  # same set (8 % 8 sets... line 8 & 7 == 0)
        assert resident(cache, 0) is False

    def test_set_mapping_uses_low_bits(self):
        cache = make(size=128, line=16, ways=1)  # 8 sets
        access(cache, 3)
        access(cache, 11)  # 11 & 7 == 3: same set, evicts
        assert resident(cache, 3) is False
        access(cache, 12)  # different set
        assert resident(cache, 11) is True


class TestCapacity:
    def test_cache_holds_exactly_num_lines(self):
        cache = make(size=128, line=16, ways=2)  # 8 lines
        for line in range(8):
            access(cache, line)
        assert len(resident_lines(cache)) == 8
        for line in range(8):
            assert resident(cache, line)

    def test_working_set_within_capacity_all_hits_second_round(self):
        cache = make(size=128, line=16, ways=2)
        for line in range(8):
            access(cache, line)
        assert all(access(cache, line) for line in range(8))

    def test_working_set_beyond_capacity_thrashes(self):
        cache = make(size=128, line=16, ways=2)
        # 16 lines cycling through 8-line cache in LRU order: never hits.
        for _ in range(3):
            for line in range(16):
                access(cache, line)
        assert not any(access(cache, line) for line in range(16))
