"""Unit and property tests for the set-associative cache."""

import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.memory import CacheConfig, SetAssocCache
from repro.memory.cache import fill_image


def _cache(size=1024, assoc=2, line=64, lat=1):
    return SetAssocCache(CacheConfig("T", size, assoc, line, lat))


class TestConfigValidation:
    def test_valid_geometry(self):
        cfg = CacheConfig("L1", 32 * 1024, 8, 64, 2)
        assert cfg.num_sets == 64

    def test_rejects_non_power_of_two_lines(self):
        with pytest.raises(ValueError):
            CacheConfig("x", 1024, 2, 60)

    def test_rejects_non_power_of_two_sets(self):
        with pytest.raises(ValueError):
            CacheConfig("x", 3 * 64 * 2, 2, 64)

    def test_rejects_indivisible_size(self):
        with pytest.raises(ValueError):
            CacheConfig("x", 1000, 2, 64)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            CacheConfig("x", 0, 2, 64)


class TestBasicBehaviour:
    def test_cold_miss_then_hit(self):
        c = _cache()
        assert not c.access(0x1000)
        c.install(0x1000)
        assert c.access(0x1000)
        assert c.stats.accesses == 2 and c.stats.misses == 1

    def test_same_line_different_offsets_hit(self):
        c = _cache()
        c.install(0x1000)
        assert c.access(0x1000 + 63)
        assert not c.access(0x1000 + 64)

    def test_line_addr(self):
        c = _cache(line=64)
        assert c.line_addr(0x1039) == 0x1000

    def test_lru_eviction(self):
        c = _cache(size=2 * 64, assoc=2, line=64)  # 1 set, 2 ways
        c.install(0x0)
        c.install(0x40 * 16)   # same set (only one set)
        c.access(0x0)          # 0x0 becomes MRU
        evicted = c.install(0x40 * 32)
        assert evicted == 0x40 * 16
        assert c.probe(0x0)
        assert not c.probe(0x40 * 16)

    def test_install_existing_line_refreshes_lru(self):
        c = _cache(size=2 * 64, assoc=2, line=64)
        c.install(0x0)
        c.install(0x1000)
        assert c.install(0x0) is None  # refresh, no eviction
        evicted = c.install(0x2000)
        assert evicted == 0x1000  # 0x0 was refreshed, so 0x1000 is LRU

    def test_probe_does_not_touch_stats_or_lru(self):
        c = _cache(size=2 * 64, assoc=2, line=64)
        c.install(0x0)
        c.install(0x1000)
        c.probe(0x0)  # must NOT refresh LRU
        evicted = c.install(0x2000)
        assert evicted == 0x0
        assert c.stats.accesses == 0

    def test_invalidate_all(self):
        c = _cache()
        c.install(0x0)
        c.invalidate_all()
        assert not c.probe(0x0)

    def test_unpickles_checkpoint_without_tag_shift(self):
        c = _cache(size=4 * 1024, assoc=2, line=64)
        c.install(0x12340)
        del c._tag_shift  # the shape of an older warm checkpoint
        restored = pickle.loads(pickle.dumps(c))
        assert restored.probe(0x12340)
        assert restored._tag_shift == 5  # log2 of 32 sets

    def test_eviction_reconstructs_victim_address(self):
        c = _cache(size=4 * 1024, assoc=1, line=64)  # 64 sets, direct-mapped
        addr = 0x12345 & ~63
        c.install(addr)
        conflicting = addr + 4 * 1024  # same set, different tag
        evicted = c.install(conflicting)
        assert evicted == addr


class TestCapacityProperties:
    def test_working_set_within_capacity_all_hits(self):
        c = _cache(size=8 * 1024, assoc=4, line=64)
        lines = [i * 64 for i in range(8 * 1024 // 64)]
        for addr in lines:
            c.install(addr)
        assert all(c.access(addr) for addr in lines)

    def test_working_set_beyond_capacity_misses(self):
        c = _cache(size=1024, assoc=2, line=64)
        lines = [i * 64 for i in range(64)]  # 4x capacity
        for _ in range(2):
            for addr in lines:
                if not c.access(addr):
                    c.install(addr)
        assert c.stats.miss_rate > 0.9  # cyclic sweep defeats LRU

    @given(st.lists(st.integers(min_value=0, max_value=1 << 20), min_size=1,
                    max_size=300))
    @settings(max_examples=30, deadline=None)
    def test_assoc_bound_invariant(self, addrs):
        """No set ever holds more than assoc lines."""
        c = _cache(size=2048, assoc=2, line=64)
        for addr in addrs:
            if not c.access(addr):
                c.install(addr)
        for ways in c._sets:
            assert len(ways) <= 2

    @given(st.lists(st.integers(min_value=0, max_value=1 << 16), min_size=1,
                    max_size=200))
    @settings(max_examples=30, deadline=None)
    def test_install_then_immediate_probe_hits(self, addrs):
        c = _cache(size=4096, assoc=4, line=64)
        for addr in addrs:
            c.install(addr)
            assert c.probe(addr)


class TestFillImage:
    """``install_image(fill_image(...))`` is ``install`` on every line."""

    @given(line=st.sampled_from([16, 32, 64]),
           assoc=st.integers(min_value=1, max_value=4),
           sets=st.sampled_from([1, 2, 4, 8]),
           prior=st.lists(st.integers(min_value=0, max_value=1 << 13),
                          max_size=40),
           ranges=st.lists(st.tuples(st.integers(min_value=0,
                                                 max_value=1 << 12),
                                     st.integers(min_value=-64,
                                                 max_value=3000)),
                           max_size=5))
    @settings(max_examples=200)
    def test_equals_per_line_install(self, line, assoc, sets, prior, ranges):
        config = CacheConfig("T", line * assoc * sets, assoc, line)
        per_line, bulk = SetAssocCache(config), SetAssocCache(config)
        for addr in prior:
            per_line.install(addr)
            bulk.install(addr)
        for start, size in ranges:
            for addr in range(start, start + size, line):
                per_line.install(addr)
        bulk.install_image(fill_image(config, ranges))
        assert bulk._sets == per_line._sets

    def test_image_is_one_entry_per_run_of_equal_sets(self):
        config = CacheConfig("T", 64 * 1024, 4, 64)  # 256 sets
        # 600 lines from set 10: sets 10..97 get three tags, the rest two.
        image = fill_image(config, [(10 * 64, 600 * 64)])
        assert [(lo, hi, len(tags)) for lo, hi, tags in image] == [
            (0, 10, 2), (10, 98, 3), (98, 256, 2)]
