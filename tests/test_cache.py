"""Tests for the measurement cache."""

from repro.core.cache import MeasurementCache
from repro.sim.clock import VirtualClock


class TestCache:
    def test_put_get(self):
        clock = VirtualClock()
        cache = MeasurementCache(clock, ttl=10)
        cache.put("k", 42)
        assert cache.get("k") == 42
        assert cache.stats.hits == 1

    def test_expiry(self):
        clock = VirtualClock()
        cache = MeasurementCache(clock, ttl=10)
        cache.put("k", 42)
        clock.advance(11)
        assert cache.get("k") is None
        assert cache.stats.expirations == 1

    def test_fresh_within_ttl(self):
        clock = VirtualClock()
        cache = MeasurementCache(clock, ttl=10)
        cache.put("k", 1)
        clock.advance(9.9)
        assert cache.get("k") == 1
        assert cache.contains_fresh("k")

    def test_disabled_cache_never_hits(self):
        clock = VirtualClock()
        cache = MeasurementCache(clock, enabled=False)
        cache.put("k", 42)
        assert cache.get("k") is None
        assert cache.stats.misses == 1

    def test_age(self):
        clock = VirtualClock()
        cache = MeasurementCache(clock)
        cache.put("k", 1)
        clock.advance(5)
        assert cache.age("k") == 5
        assert cache.age("missing") is None

    def test_purge_expired(self):
        clock = VirtualClock()
        cache = MeasurementCache(clock, ttl=10)
        cache.put("a", 1)
        clock.advance(11)
        cache.put("b", 2)
        assert cache.purge_expired() == 1
        assert len(cache) == 1

    def test_hit_rate(self):
        clock = VirtualClock()
        cache = MeasurementCache(clock)
        cache.put("k", 1)
        cache.get("k")
        cache.get("missing")
        assert cache.stats.hit_rate == 0.5

    def test_hit_rate_zero_lookups(self):
        cache = MeasurementCache(VirtualClock())
        assert cache.stats.lookups == 0
        assert cache.stats.hit_rate == 0.0

    def test_stats_as_dict(self):
        clock = VirtualClock()
        cache = MeasurementCache(clock, ttl=10)
        cache.put("k", 1)
        cache.get("k")
        cache.get("missing")
        clock.advance(11)
        cache.get("k")
        assert cache.stats.as_dict() == {
            "hits": 1,
            "misses": 2,
            "expirations": 1,
            "evictions": 0,
            "lookups": 3,
            "hit_rate": 1 / 3,
        }

    def test_lookups_mirrored_into_metrics(self):
        from repro.obs import Instrumentation
        from repro.obs.runtime import attach

        instr = Instrumentation()
        clock = VirtualClock()
        cache = MeasurementCache(clock, ttl=10)
        attach(instr, cache)
        cache.put("k", 1)
        cache.get("k")
        cache.get("missing")
        clock.advance(11)
        cache.get("k")
        # Stats are mirrored into the registry at collection time.
        series = instr.registry.snapshot()["cache_lookups_total"][
            "series"
        ]
        values = {
            s["labels"]["outcome"]: s["value"] for s in series
        }
        assert values == {"hit": 1, "miss": 1, "expired": 1}

    def test_overwrite_refreshes_timestamp(self):
        clock = VirtualClock()
        cache = MeasurementCache(clock, ttl=10)
        cache.put("k", 1)
        clock.advance(8)
        cache.put("k", 2)
        clock.advance(8)
        assert cache.get("k") == 2


class TestNegativeTTL:
    def test_negative_entries_expire_sooner(self):
        clock = VirtualClock()
        cache = MeasurementCache(clock, ttl=100, negative_ttl=10)
        cache.put("pos", 1)
        cache.put("neg", (), negative=True)
        clock.advance(11)
        # The negative entry is past its own TTL; the positive one is
        # still well inside the default.
        assert cache.get("neg") is None
        assert cache.get("pos") == 1
        assert cache.stats.expirations == 1
        assert cache.stats.hits == 1

    def test_negative_without_split_uses_default_ttl(self):
        clock = VirtualClock()
        cache = MeasurementCache(clock, ttl=100)
        cache.put("neg", (), negative=True)
        clock.advance(50)
        assert cache.get("neg") == ()

    def test_purge_respects_per_entry_ttl(self):
        clock = VirtualClock()
        cache = MeasurementCache(clock, ttl=100, negative_ttl=10)
        cache.put("pos", 1)
        cache.put("neg", (), negative=True)
        clock.advance(11)
        assert cache.purge_expired() == 1
        assert len(cache) == 1
        assert cache.contains_fresh("pos")

    def test_overwrite_flips_ttl_class(self):
        clock = VirtualClock()
        cache = MeasurementCache(clock, ttl=100, negative_ttl=10)
        cache.put("k", (), negative=True)
        cache.put("k", 7)  # now a positive result
        clock.advance(50)
        assert cache.get("k") == 7


class TestBoundedCache:
    def test_lru_eviction_at_capacity(self):
        clock = VirtualClock()
        cache = MeasurementCache(clock, ttl=100, max_entries=3)
        for key in ("a", "b", "c"):
            cache.put(key, key)
        # Touch "a" so "b" becomes the least recently used entry.
        assert cache.get("a") == "a"
        cache.put("d", "d")
        assert len(cache) == 3
        assert cache.get("b") is None
        assert cache.get("a") == "a"
        assert cache.get("d") == "d"
        assert cache.stats.evictions == 1

    def test_eviction_counter_in_stats_dict(self):
        clock = VirtualClock()
        cache = MeasurementCache(clock, ttl=100, max_entries=1)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("c", 3)
        assert cache.stats.evictions == 2
        assert cache.stats.as_dict()["evictions"] == 2

    def test_evictions_reach_metrics(self):
        # Not as a family of their own: the operator document
        # (`RevtrService.metrics_snapshot()` is `introspect`) prints
        # the cache's own stats.
        from repro.obs.runtime import introspect

        cache = MeasurementCache(VirtualClock(), ttl=100, max_entries=2)
        for i in range(5):
            cache.put(i, i)
        doc = introspect(caches={"engine": cache})
        assert doc["caches"]["engine"]["evictions"] == 3

    def test_maybe_purge_rate_limited(self):
        clock = VirtualClock()
        cache = MeasurementCache(
            clock, ttl=10, purge_interval=100
        )
        cache.put("k", 1)
        clock.advance(150)  # entry expired at t=10
        assert cache.maybe_purge() == 1
        assert len(cache) == 0
        cache.put("j", 1)
        clock.advance(50)  # expired again, but inside the interval
        assert cache.maybe_purge() == 0
        clock.advance(60)
        assert cache.maybe_purge() == 1

    def test_unbounded_cache_never_evicts(self):
        clock = VirtualClock()
        cache = MeasurementCache(clock, ttl=1000)
        for i in range(500):
            cache.put(i, i)
        assert len(cache) == 500
        assert cache.stats.evictions == 0


class TestThreadedPurge:
    def test_concurrent_maybe_purge_and_access(self):
        """Sweepers and writers hammer one cache concurrently: every
        dead entry is removed exactly once, no fresh entry is lost,
        and the stats stay consistent."""
        import threading

        clock = VirtualClock()
        # purge_interval=0 makes every maybe_purge call sweep, so the
        # contention window is as wide as it can get.
        cache = MeasurementCache(clock, ttl=10, purge_interval=0.0)
        for i in range(400):
            cache.put(("old", i), i)
        clock.advance(11)

        barrier = threading.Barrier(8)
        purged = [0] * 4
        errors = []

        def sweeper(slot):
            try:
                barrier.wait()
                for _ in range(50):
                    purged[slot] += cache.maybe_purge()
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        def writer(slot):
            try:
                barrier.wait()
                for i in range(200):
                    key = ("fresh", slot, i)
                    cache.put(key, i)
                    assert cache.get(key) == i
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [
            threading.Thread(target=sweeper, args=(slot,))
            for slot in range(4)
        ] + [
            threading.Thread(target=writer, args=(slot,))
            for slot in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert not errors
        assert sum(purged) == 400
        assert len(cache) == 800
        assert cache.stats.hits == 800
        assert cache.stats.misses == 0
