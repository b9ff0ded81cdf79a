"""Set-associative cache (``ClassifyingCache.process``) vs an
independent reference model."""

from hypothesis import given, settings, strategies as st

from repro.cache.config import CacheConfig
from repro.cache.classify import ClassifyingCache


class ReferenceCache:
    """Textbook model: one LRU list per set, nothing shared."""

    def __init__(self, num_sets: int, ways: int) -> None:
        self.num_sets = num_sets
        self.ways = ways
        self.sets = [[] for _ in range(num_sets)]

    def access(self, line: int) -> bool:
        lru = self.sets[line % self.num_sets]
        if line in lru:
            lru.remove(line)
            lru.append(line)
            return True
        if len(lru) >= self.ways:
            lru.pop(0)
        lru.append(line)
        return False


class TestAgainstReferenceModel:
    @settings(max_examples=60)
    @given(
        accesses=st.lists(st.integers(0, 63), min_size=1, max_size=500),
        geometry=st.sampled_from(
            [(128, 16, 1), (128, 16, 2), (128, 16, 4), (256, 32, 2)]
        ),
    )
    def test_property_hit_sequence_matches(self, accesses, geometry):
        size, line, ways = geometry
        config = CacheConfig("c", size, line, ways)
        cache = ClassifyingCache(config)
        reference = ReferenceCache(config.num_sets, ways)
        for line_number in accesses:
            hit = not cache.process([line_number])
            assert hit == reference.access(line_number)

    @settings(max_examples=40)
    @given(accesses=st.lists(st.integers(0, 200), min_size=1, max_size=400))
    def test_property_residency_never_exceeds_capacity(self, accesses):
        config = CacheConfig("c", 256, 16, 2)
        cache = ClassifyingCache(config)
        for line_number in accesses:
            cache.process([line_number])
            assert sum(map(len, cache.sets)) <= config.num_lines
            for set_index in range(config.num_sets):
                assert len(cache.sets[set_index]) <= 2

    @settings(max_examples=40)
    @given(accesses=st.lists(st.integers(0, 100), min_size=1, max_size=300))
    def test_property_most_recent_access_always_resident(self, accesses):
        cache = ClassifyingCache(CacheConfig("c", 128, 16, 2))
        for line_number in accesses:
            cache.process([line_number])
            assert line_number in cache.sets[line_number & cache.set_mask]
