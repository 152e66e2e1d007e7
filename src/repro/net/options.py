"""IP option models: record route and prespecified timestamps.

These classes model the header state that Reverse Traceroute exploits
(Section 2 of the paper). They carry no bytes — only the semantic
content a simulator needs:

* :class:`RecordRouteOption` has nine address slots (RFC 791). Routers
  on the path may stamp an address; when the destination echoes the
  probe, the *same option* keeps filling on the reverse path, which is
  how reverse hops are revealed.
* :class:`TimestampOption` (tsprespec) carries up to four prespecified
  addresses; a router stamps only if it owns the *next unstamped*
  prespecified address, giving an ordered on-path test.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.net.addr import Address

#: RFC 791 limit: a 40-byte option area fits nine 4-byte addresses.
RECORD_ROUTE_SLOTS = 9

#: With both address and timestamp recorded, four pairs fit (RFC 791).
TIMESTAMP_SLOTS = 4


@dataclass
class RecordRouteOption:
    """State of a record-route option as it traverses the network."""

    slots: List[Address] = field(default_factory=list)

    def is_full(self) -> bool:
        return len(self.slots) >= RECORD_ROUTE_SLOTS

    def stamp(self, addr: Address) -> bool:
        """Record *addr* if a slot remains; return True if recorded."""
        if self.is_full():
            return False
        self.slots.append(addr)
        return True

    def loop_address(self) -> Optional[Address]:
        """Return the address that repeats with other hops in between
        (the first such loop), if any.

        An ``a - S - a`` pattern indicates the probe reached a
        destination that did not stamp, with hop *a* traversed on both
        the forward and reverse legs (Appendix C of the paper).
        """
        seen = {}
        for index, addr in enumerate(self.slots):
            first = seen.get(addr)
            if first is not None and index - first > 1:
                return addr
            if first is None:
                seen[addr] = index
        return None

    def loop_interior(self) -> List[Address]:
        """Return the hops inside the first loop (the ``S`` subpath)."""
        addr = self.loop_address()
        if addr is None:
            return []
        first = self.slots.index(addr)
        second = self.slots.index(addr, first + 1)
        return self.slots[first + 1:second]


@dataclass
class TimestampOption:
    """State of a tsprespec timestamp option.

    Attributes:
        prespecified: the sender-chosen addresses, in test order.
        stamped: parallel list of recorded timestamps (None = not yet).
    """

    prespecified: Tuple[Address, ...]
    stamped: List[Optional[int]] = field(default_factory=list)

    def __post_init__(self) -> None:
        if len(self.prespecified) > TIMESTAMP_SLOTS:
            raise ValueError(
                f"at most {TIMESTAMP_SLOTS} prespecified addresses"
            )
        if not self.stamped:
            self.stamped = [None] * len(self.prespecified)

    @classmethod
    def prespec(cls, addresses: Sequence[Address]) -> "TimestampOption":
        return cls(tuple(addresses))

    def next_pending(self) -> Optional[Address]:
        """Return the next address that must stamp, or None if done."""
        for addr, stamp in zip(self.prespecified, self.stamped):
            if stamp is None:
                return addr
        return None

    def stamp_if_match(self, owned: Sequence[Address], now: int) -> bool:
        """Stamp the next pending slot if its address is in *owned*.

        Returns True if a timestamp was recorded. Order matters: a
        router that owns a *later* prespecified address must not stamp
        until all earlier addresses have stamped — this ordering is the
        entire point of the tsprespec on-path test (Fig. 1e).
        """
        pending = self.next_pending()
        if pending is None or pending not in owned:
            return False
        index = self.stamped.index(None)
        self.stamped[index] = now
        return True
