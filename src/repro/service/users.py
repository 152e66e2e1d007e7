"""User accounts and per-user rate limiting (Appendix A).

The deployed system keeps a manually maintained user database with two
rate-limiting parameters per user: the number of parallel reverse
traceroutes and the maximum measurements per day — "similar to what
RIPE Atlas does". Day boundaries are read off the virtual clock.
"""

from __future__ import annotations

import secrets
import threading
from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.sim.clock import VirtualClock

_DAY = 86_400.0


class QuotaExceeded(Exception):
    """The user hit a rate limit."""


@dataclass
class User:
    """A registered user of the open system."""

    name: str
    api_key: str
    max_parallel: int = 10
    max_per_day: int = 10_000
    _used_today: int = 0
    _day_index: int = 0
    # Quota accounting is read-modify-write; the lock keeps it atomic
    # when a reader thread (``serve --http``) runs beside the workload.
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def _roll_day(self, now: float) -> None:
        day = int(now // _DAY)
        if day != self._day_index:
            self._day_index = day
            self._used_today = 0

    def charge(self, now: float, n: int = 1) -> None:
        """Charge *n* measurements against today's quota."""
        with self._lock:
            self._roll_day(now)
            if self._used_today + n > self.max_per_day:
                raise QuotaExceeded(
                    f"user {self.name} exceeded {self.max_per_day}/day"
                )
            self._used_today += n

    def refund(self, now: float, n: int = 1) -> None:
        """Return *n* unused charges to today's quota.

        Only charges made the same (virtual) day can come back; after
        a day rollover there is nothing to refund against.
        """
        with self._lock:
            self._roll_day(now)
            self._used_today = max(0, self._used_today - n)

    def remaining_today(self, now: float) -> int:
        with self._lock:
            self._roll_day(now)
            return self.max_per_day - self._used_today


class UserDatabase:
    """In-memory user registry keyed by API key."""

    def __init__(self, clock: VirtualClock) -> None:
        self.clock = clock
        self._by_key: Dict[str, User] = {}
        self._by_name: Dict[str, User] = {}

    def add_user(
        self,
        name: str,
        max_parallel: int = 10,
        max_per_day: int = 10_000,
        api_key: Optional[str] = None,
    ) -> User:
        if name in self._by_name:
            raise ValueError(f"user {name!r} already registered")
        key = api_key if api_key is not None else secrets.token_hex(8)
        user = User(
            name=name,
            api_key=key,
            max_parallel=max_parallel,
            max_per_day=max_per_day,
        )
        self._by_key[key] = user
        self._by_name[name] = user
        return user

    def authenticate(self, api_key: str) -> User:
        user = self._by_key.get(api_key)
        if user is None:
            raise PermissionError("unknown API key")
        return user

    def get(self, name: str) -> Optional[User]:
        return self._by_name.get(name)

    def __len__(self) -> int:
        return len(self._by_key)
