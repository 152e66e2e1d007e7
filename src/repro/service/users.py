"""User accounts and per-user rate limiting (Appendix A).

The deployed system keeps a manually maintained user database with two
rate-limiting parameters per user: the number of parallel reverse
traceroutes and the maximum measurements per day — "similar to what
RIPE Atlas does". Day boundaries are read off the virtual clock.
Quotas are charged and refunded only by the thread that serves
requests, so the read-modify-write needs no lock.
"""

from __future__ import annotations

import secrets
from dataclasses import dataclass
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

    def _roll_day(self, now: float) -> bool:
        """Move to *now*'s day if it is a later one; False when *now*
        is dated before the current day.

        The day only moves forward: the scheduler charges at lane
        time, which can lag the serial clock a direct request charged
        at, and an earlier-dated charge must not reopen a day that is
        over and zero the count.
        """
        day = int(now // _DAY)
        if day > self._day_index:
            self._day_index = day
            self._used_today = 0
        return day == self._day_index

    def charge(self, now: float) -> int:
        """Charge one measurement against today's quota and return the
        day it counted against; a charge dated before today counts
        against today."""
        self._roll_day(now)
        if self._used_today >= self.max_per_day:
            raise QuotaExceeded(
                f"user {self.name} exceeded {self.max_per_day}/day"
            )
        self._used_today += 1
        return self._day_index

    def refund(self, day: int) -> None:
        """Return one unused charge to *day*, the day :meth:`charge`
        said it counted against.

        Once that day is over there is nothing to refund against, so
        the refund returns nothing.
        """
        if day == self._day_index:
            self._used_today = max(0, self._used_today - 1)

    def remaining_today(self, now: float) -> int:
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
    ) -> User:
        if name in self._by_name:
            raise ValueError(f"user {name!r} already registered")
        key = secrets.token_hex(8)
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
