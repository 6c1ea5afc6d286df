"""Tests for the hot-key LRU cache and its invalidation surface."""

import pytest

from repro.serve import HotKeyCache


class TestBasics:
    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError, match="capacity"):
            HotKeyCache(0)

    def test_get_put_roundtrip(self):
        cache = HotKeyCache(4)
        cache.put("a", 1)
        assert cache.get("a") == 1
        assert "a" in cache
        assert len(cache) == 1

    def test_miss_returns_default(self):
        cache = HotKeyCache(4)
        assert cache.get("nope") is None
        assert cache.get("nope", 42) == 42

    def test_cached_none_is_not_a_miss(self):
        cache = HotKeyCache(4)
        cache.put("a", None)
        sentinel = object()
        assert cache.get("a", sentinel) is None
        assert cache.hits == 1 and cache.misses == 0

    def test_put_refreshes_value(self):
        cache = HotKeyCache(4)
        cache.put("a", 1)
        cache.put("a", 2)
        assert cache.get("a") == 2
        assert len(cache) == 1


class TestLRU:
    def test_evicts_least_recently_used(self):
        cache = HotKeyCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("c", 3)  # evicts a
        assert "a" not in cache
        assert cache.keys() == ("b", "c")
        assert cache.evictions == 1

    def test_get_refreshes_recency(self):
        cache = HotKeyCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")
        cache.put("c", 3)  # evicts b, not a
        assert "a" in cache and "b" not in cache

    def test_peek_does_not_refresh_recency_or_counters(self):
        cache = HotKeyCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.peek("a") == 1
        assert cache.peek("zzz", "d") == "d"
        assert cache.hits == 0 and cache.misses == 0
        cache.put("c", 3)  # a is still LRU -> evicted
        assert "a" not in cache


class TestCounters:
    def test_hit_rate(self):
        cache = HotKeyCache(4)
        assert cache.hit_rate == 0.0
        cache.put("a", 1)
        cache.get("a")
        cache.get("b")
        assert cache.hit_rate == 0.5


class TestInvalidation:
    def test_invalidate_single(self):
        cache = HotKeyCache(4)
        cache.put("a", 1)
        assert cache.invalidate("a") is True
        assert cache.invalidate("a") is False
        assert "a" not in cache
        assert cache.invalidations == 1

    def test_invalidate_many_counts_only_cached(self):
        cache = HotKeyCache(8)
        for key in "abcd":
            cache.put(key, key)
        evicted = cache.invalidate_many(["a", "c", "x", "y"])
        assert evicted == 2
        assert cache.keys() == ("b", "d")
        assert cache.invalidations == 2

    def test_invalidate_many_leaves_rest_warm(self):
        cache = HotKeyCache(8)
        for key in range(6):
            cache.put(key, key * 10)
        cache.invalidate_many([1, 3])
        for key in (0, 2, 4, 5):
            assert cache.peek(key) == key * 10

    def test_flush_drops_everything(self):
        cache = HotKeyCache(8)
        for key in range(5):
            cache.put(key, key)
        assert cache.flush() == 5
        assert len(cache) == 0
        assert cache.invalidations == 5
