"""Token-bucket rate limiting against the virtual clock.

The paper limits probing to 100 packets per second per vantage point
(Section 8) and RIPE Atlas imposes credit limits on traceroutes
(Insight 1.5's motivation). Both are modelled with the same bucket: a
caller that exceeds the rate *waits on the virtual clock* rather than
dropping, so rate limits translate into measurement latency exactly as
they do in the deployed system.
"""

from __future__ import annotations

from typing import Iterable

from repro.sim.clock import VirtualClock


class TokenBucket:
    """A token bucket that blocks by advancing virtual time."""

    def __init__(
        self,
        clock: VirtualClock,
        rate_per_second: float,
        burst: float = 1.0,
    ) -> None:
        if rate_per_second <= 0:
            raise ValueError("rate must be positive")
        self.clock = clock
        self.rate = float(rate_per_second)
        self.burst = max(1.0, float(burst))
        self._tokens = self.burst
        self._last = clock.now()

    def _take(self, now: float) -> float:
        """Take one token at time *now*, waiting for it if the bucket
        is empty; returns the time it was taken at."""
        tokens = min(
            self.burst, self._tokens + (now - self._last) * self.rate
        )
        if tokens >= 1:
            tokens -= 1
        else:
            # Exactly the deficit accrues during the wait, and it is
            # consumed by this take along with the balance.
            now += (1 - tokens) / self.rate
            tokens = 0.0
        self._tokens = tokens
        self._last = now
        return now

    def acquire(self) -> float:
        """Take one token, advancing the clock if needed.

        Returns the seconds waited (possibly zero).
        """
        now = self.clock.now()
        taken = self._take(now)
        if taken == now:
            return 0.0
        return self.clock.advance_to(taken) - now

    def pace(self, costs: Iterable[float], pacing: float) -> None:
        """Charge one probe per entry of *costs*, in order: each takes
        a token, then holds the clock for *pacing* and then its cost.
        ``acquire(); advance(pacing); advance(cost)`` per entry, float
        for float, with the clock set once, at the end."""
        now = self.clock.now()
        for cost in costs:
            now = self._take(now) + pacing + cost
        self.clock.advance_to(now)
