"""Token-bucket rate limiting against the virtual clock.

The paper limits probing to 100 packets per second per vantage point
(Section 8) and RIPE Atlas imposes credit limits on traceroutes
(Insight 1.5's motivation). Both are modelled with the same bucket: a
caller that exceeds the rate *waits on the virtual clock* rather than
dropping, so rate limits translate into measurement latency exactly as
they do in the deployed system.
"""

from __future__ import annotations

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

    def _refill(self) -> None:
        now = self.clock.now()
        self._tokens = min(
            self.burst, self._tokens + (now - self._last) * self.rate
        )
        self._last = now

    def acquire(self, n: int = 1) -> float:
        """Take *n* tokens, advancing the clock if needed.

        Returns the seconds waited (possibly zero).
        """
        self._refill()
        if self._tokens >= n:
            self._tokens -= n
            return 0.0
        deficit = n - self._tokens
        wait = deficit / self.rate
        self.clock.advance(wait)
        # Exactly `deficit` tokens accrued during the wait and all of
        # them (plus the balance) are consumed by this acquire.  Going
        # through `_refill()` here would cap the accrual at `burst`
        # before the deduction, leaving permanent negative-token debt
        # whenever n > burst and over-charging every later caller.
        self._tokens = 0.0
        self._last = self.clock.now()
        return wait
