"""Measurement cache (Insight 1.4).

Paths are stable enough to reuse measurements for a day: revtr 2.0
caches record-route results and forward traceroutes keyed by
(measurement kind, parameters), with expiry read off the virtual clock.
The cache is a large share of the Table 4 probe savings because reverse
paths toward one source converge, so later reverse traceroutes re-hit
the same (hop, source) measurements.

The cache is bounded by time: entries expire after `DEFAULT_TTL` and the
measurement path sweeps them out via :meth:`maybe_purge`, at most once
per `PURGE_INTERVAL`.  Only the thread that serves requests touches
it; telemetry readers see its stats as mirrored into a published
sample, so it takes no lock.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Hashable, Optional, Tuple

from repro.obs.instrument import NULL
from repro.sim.clock import VirtualClock

#: Entry lifetime: one day (paper: daily refresh).
DEFAULT_TTL = 86_400.0

#: Spacing of opportunistic expired-entry sweeps (virtual seconds);
#: one sweep per simulated hour keeps the dict from accumulating a
#: day's worth of dead entries between measurements.
PURGE_INTERVAL = 3_600.0


@dataclass
class CacheStats:
    hits: int = 0
    misses: int = 0
    expirations: int = 0
    #: Always 0: there is no size bound to evict for.  The e2e ledger
    #: reads it (``core.cache.evictions``).
    evictions: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses


class MeasurementCache:
    """A TTL cache driven by virtual time."""

    def __init__(
        self,
        clock: VirtualClock,
        enabled: bool = True,
    ) -> None:
        self.clock = clock
        self.enabled = enabled
        self.stats = CacheStats()
        #: instrumentation sink; the owning engine sets its own
        self.obs = NULL
        #: key -> (stored_at, value)
        self._entries: Dict[Hashable, Tuple[float, Any]] = {}
        self._last_purge = clock.now()

    def _obs_collect(self) -> Dict:
        """Mirror :class:`CacheStats` into ``cache_lookups_total``.

        Pull-style: the stats object already tallies every lookup, so
        ``get`` pays nothing extra; an expired lookup counts as both a
        miss (in stats) and an ``expired`` metric outcome.
        """
        stats = self.stats
        return {
            ("cache_lookups_total", (("outcome", "hit"),)): float(
                stats.hits
            ),
            ("cache_lookups_total", (("outcome", "miss"),)): float(
                stats.misses - stats.expirations
            ),
            ("cache_lookups_total", (("outcome", "expired"),)): float(
                stats.expirations
            ),
        }

    def get(self, key: Hashable) -> Optional[Any]:
        """Return the cached value, or None on miss/expiry/disabled."""
        if not self.enabled:
            self.stats.misses += 1
            return None
        outcome = "miss"
        value: Optional[Any] = None
        entry = self._entries.get(key)
        if entry is not None:
            stored_at, stored = entry
            if self.clock.now() - stored_at > DEFAULT_TTL:
                del self._entries[key]
                self.stats.expirations += 1
                self.stats.misses += 1
                outcome = "expired"
            else:
                self.stats.hits += 1
                outcome = "hit"
                value = stored
        else:
            self.stats.misses += 1
        if outcome != "miss" and self.obs.enabled:
            # Misses are the overwhelmingly common case and carry no
            # information the engine's own step events don't — only
            # hits and expiries (decisions that changed the
            # measurement's course) earn an event.  The kind label is
            # the first element of tuple keys ("rr-step", "fwd-trace",
            # ...).
            self.obs.emit_t(
                "cache.lookup",
                (
                    key[0] if isinstance(key, tuple) and key else "?",
                    outcome,
                ),
            )
        return value

    def put(self, key: Hashable, value: Any) -> None:
        """Store *value* under *key*, stamped with the current time."""
        if not self.enabled:
            return
        self._entries[key] = (self.clock.now(), value)

    def contains_fresh(self, key: Hashable) -> bool:
        entry = self._entries.get(key)
        if entry is None:
            return False
        return self.clock.now() - entry[0] <= DEFAULT_TTL

    def age(self, key: Hashable) -> Optional[float]:
        entry = self._entries.get(key)
        if entry is None:
            return None
        return self.clock.now() - entry[0]

    def purge_expired(self) -> int:
        """Drop expired entries; returns how many were removed."""
        now = self.clock.now()
        expired = [
            key
            for key, (stored_at, _) in self._entries.items()
            if now - stored_at > DEFAULT_TTL
        ]
        for key in expired:
            del self._entries[key]
        return len(expired)

    def maybe_purge(self) -> int:
        """Sweep expired entries at most once per `PURGE_INTERVAL`.

        Called from the measurement path (the engine, the scheduler)
        so long-running services shed dead entries without a dedicated
        maintenance thread; returns the number removed (0 when the
        sweep is skipped).
        """
        now = self.clock.now()
        if now - self._last_purge < PURGE_INTERVAL:
            return 0
        self._last_purge = now
        return self.purge_expired()

    def __len__(self) -> int:
        return len(self._entries)
