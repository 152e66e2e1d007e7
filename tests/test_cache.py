"""Tests for the measurement cache."""

from repro.core.cache import PURGE_INTERVAL, MeasurementCache
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


class TestBoundedCache:
    """Bounded by time: the TTL, swept at most once per
    `PURGE_INTERVAL`; there is no size bound."""

    def test_maybe_purge_rate_limited(self):
        clock = VirtualClock()
        cache = MeasurementCache(clock, ttl=10)
        cache.put("k", 1)
        clock.advance(1.5 * PURGE_INTERVAL)  # entry expired at t=10
        assert cache.maybe_purge() == 1
        assert len(cache) == 0
        cache.put("j", 1)
        clock.advance(0.5 * PURGE_INTERVAL)  # expired, inside the interval
        assert cache.maybe_purge() == 0
        clock.advance(0.6 * PURGE_INTERVAL)
        assert cache.maybe_purge() == 1

    def test_unbounded_cache_never_evicts(self):
        clock = VirtualClock()
        cache = MeasurementCache(clock, ttl=1000)
        for i in range(500):
            cache.put(i, i)
        assert len(cache) == 500
        assert cache.stats.evictions == 0


class TestThreadedPurge:
    def test_concurrent_maybe_purge_and_access(self, monkeypatch):
        """Sweepers and writers hammer one cache concurrently: every
        dead entry is removed exactly once, no fresh entry is lost,
        and the stats stay consistent."""
        import threading

        clock = VirtualClock()
        # No interval makes every maybe_purge call sweep, so the
        # contention window is as wide as it can get.
        monkeypatch.setattr("repro.core.cache.PURGE_INTERVAL", 0.0)
        cache = MeasurementCache(clock, ttl=10)
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
