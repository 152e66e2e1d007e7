"""Virtual time.

All latency in the library is simulated: probes cost their round-trip
time, spoofed batches cost the paper's 10-second receive timeout
(§5.2.4), and atlas refreshes happen on a simulated daily schedule.
Nothing ever sleeps; experiments that report seconds (Fig. 5c) and
staleness over hours (Fig. 9d) read this clock.
"""

from __future__ import annotations


class VirtualClock:
    """A monotonically advancing simulated clock, in seconds.

    Only the thread that runs the workload advances it; telemetry
    readers see the sim time stamped on what that thread published.
    """

    def __init__(self) -> None:
        self._now = 0.0

    def now(self) -> float:
        return self._now

    def advance(self, seconds: float) -> float:
        """Move time forward; negative advances are rejected."""
        if seconds < 0:
            raise ValueError(f"cannot advance clock by {seconds}")
        self._now += seconds
        return self._now

    def advance_to(self, timestamp: float) -> float:
        """Jump to an absolute time not earlier than now."""
        if timestamp < self._now:
            raise ValueError(
                f"cannot move clock backwards ({timestamp} < {self._now})"
            )
        self._now = timestamp
        return self._now

    def __repr__(self) -> str:
        return f"VirtualClock(t={self._now:.3f}s)"
