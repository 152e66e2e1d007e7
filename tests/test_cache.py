"""Tests for the measurement cache."""

from repro.core.cache import DEFAULT_TTL, PURGE_INTERVAL, MeasurementCache
from repro.sim.clock import VirtualClock


class TestCache:
    def test_put_get(self):
        clock = VirtualClock()
        cache = MeasurementCache(clock)
        cache.put("k", 42)
        assert cache.get("k") == 42
        assert cache.stats.hits == 1

    def test_expiry(self):
        clock = VirtualClock()
        cache = MeasurementCache(clock)
        cache.put("k", 42)
        clock.advance(DEFAULT_TTL + 1)
        assert cache.get("k") is None
        assert cache.stats.expirations == 1

    def test_fresh_within_ttl(self):
        clock = VirtualClock()
        cache = MeasurementCache(clock)
        cache.put("k", 1)
        clock.advance(DEFAULT_TTL - 0.1)
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
        cache = MeasurementCache(clock)
        cache.put("a", 1)
        clock.advance(DEFAULT_TTL + 1)
        cache.put("b", 2)
        assert cache.purge_expired() == 1
        assert len(cache) == 1

    def test_lookups_mirrored_into_metrics(self):
        from repro.obs import Instrumentation

        instr = Instrumentation()
        clock = VirtualClock()
        cache = MeasurementCache(clock)
        # What the owning engine does with the cache it builds.
        instr.register_collect_source(cache._obs_collect)
        cache.put("k", 1)
        cache.get("k")
        cache.get("missing")
        clock.advance(DEFAULT_TTL + 1)
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
        cache = MeasurementCache(clock)
        cache.put("k", 1)
        clock.advance(0.8 * DEFAULT_TTL)
        cache.put("k", 2)
        clock.advance(0.8 * DEFAULT_TTL)
        assert cache.get("k") == 2


class TestBoundedCache:
    """Bounded by time: the TTL, swept at most once per
    `PURGE_INTERVAL`; there is no size bound."""

    def test_maybe_purge_rate_limited(self):
        clock = VirtualClock()
        cache = MeasurementCache(clock)
        cache.put("k", 1)
        clock.advance(0.5 * PURGE_INTERVAL)
        cache.put("j", 1)
        clock.advance(DEFAULT_TTL - 0.25 * PURGE_INTERVAL)  # k expired
        assert cache.maybe_purge() == 1
        assert len(cache) == 1
        clock.advance(0.5 * PURGE_INTERVAL)  # j expired, inside the interval
        assert cache.maybe_purge() == 0
        clock.advance(0.6 * PURGE_INTERVAL)
        assert cache.maybe_purge() == 1

    def test_unbounded_cache_never_evicts(self):
        clock = VirtualClock()
        cache = MeasurementCache(clock)
        for i in range(500):
            cache.put(i, i)
        assert len(cache) == 500
        assert cache.stats.evictions == 0


class TestThreadedPurge:
    def test_concurrent_maybe_purge_and_access(self, monkeypatch):
        """Sweeps interleaved with puts and gets, as four sweepers and
        four writers would issue them, on the one thread that touches
        the cache: every dead entry is removed exactly once, no fresh
        entry is lost, and the stats stay consistent."""
        clock = VirtualClock()
        # No interval makes every maybe_purge call sweep.
        monkeypatch.setattr("repro.core.cache.PURGE_INTERVAL", 0.0)
        cache = MeasurementCache(clock)
        for i in range(400):
            cache.put(("old", i), i)
        clock.advance(DEFAULT_TTL + 1)

        purged = [0] * 4
        for i in range(200):
            for slot in range(4):
                key = ("fresh", slot, i)
                cache.put(key, i)
                assert cache.get(key) == i
            if i % 4 == 0:
                for slot in range(4):
                    purged[slot] += cache.maybe_purge()

        assert sum(purged) == 400
        assert len(cache) == 800
        assert cache.stats.hits == 800
        assert cache.stats.misses == 0
