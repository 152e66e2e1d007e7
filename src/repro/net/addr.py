"""IPv4 address and prefix utilities.

Addresses are plain dotted-quad strings throughout the library (they are
what operators read in traceroute output), with integer helpers for
arithmetic. A :class:`Prefix` is a lightweight CIDR block supporting
containment tests and enumeration; it is hashable so it can serve as a
routing-table key.

The /30 and /31 helpers implement the point-to-point subnetting
convention the paper leans on twice: the alias heuristic in Appendix B.1
(a record-route hop followed by a traceroute hop in the same /30 is a
point-to-point link) and the Section 4.4 target selection (the other
address of an SNMPv3 responder's /30 likely traverses that router).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, List, Optional

#: Type alias used across the library for dotted-quad IPv4 addresses.
Address = str

_MAX_IPV4 = (1 << 32) - 1


@lru_cache(maxsize=1 << 20)
def addr_to_int(addr: Address) -> int:
    """Convert a dotted-quad address to its 32-bit integer value."""
    parts = addr.split(".")
    if len(parts) != 4:
        raise ValueError(f"malformed IPv4 address: {addr!r}")
    value = 0
    for part in parts:
        octet = int(part)
        if not 0 <= octet <= 255:
            raise ValueError(f"malformed IPv4 address: {addr!r}")
        value = (value << 8) | octet
    return value


@lru_cache(maxsize=1 << 20)
def int_to_addr(value: int) -> Address:
    """Convert a 32-bit integer to a dotted-quad address."""
    if not 0 <= value <= _MAX_IPV4:
        raise ValueError(f"IPv4 integer out of range: {value}")
    return ".".join(
        str((value >> shift) & 0xFF) for shift in (24, 16, 8, 0)
    )


def is_private(addr: Address) -> bool:
    """Return True for RFC 1918 private addresses.

    Routers that stamp record-route packets with private addresses are
    one of the sources of incomplete reverse traceroutes quantified in
    Section 5.2.2 of the paper.
    """
    value = addr_to_int(addr)
    if (value >> 24) == 10:
        return True
    if (value >> 20) == (172 << 4) | 1:  # 172.16.0.0/12
        return True
    if (value >> 16) == (192 << 8) | 168:  # 192.168.0.0/16
        return True
    return False


@dataclass(frozen=True, order=True)
class Prefix:
    """A CIDR block, e.g. ``Prefix(addr_to_int("10.1.2.0"), 24)``.

    Attributes:
        network: integer value of the network address (host bits zero).
        length: prefix length in bits, 0..32.
    """

    network: int
    length: int

    def __post_init__(self) -> None:
        if not 0 <= self.length <= 32:
            raise ValueError(f"bad prefix length: {self.length}")
        if self.network & ~self.mask():
            raise ValueError(
                f"network {int_to_addr(self.network)} has host bits set "
                f"for /{self.length}"
            )

    def mask(self) -> int:
        """Return the integer netmask for this prefix."""
        if self.length == 0:
            return 0
        return (~0 << (32 - self.length)) & _MAX_IPV4

    def contains(self, addr: Address) -> bool:
        """Return True if *addr* falls within this prefix."""
        return (addr_to_int(addr) & self.mask()) == self.network

    @property
    def num_addresses(self) -> int:
        return 1 << (32 - self.length)

    def addresses(self) -> Iterator[Address]:
        """Yield every address in the prefix (use on small prefixes)."""
        for offset in range(self.num_addresses):
            yield int_to_addr(self.network + offset)

    def nth(self, offset: int) -> Address:
        """Return the address at *offset* from the network address."""
        if not 0 <= offset < self.num_addresses:
            raise IndexError(
                f"offset {offset} out of range for /{self.length}"
            )
        return int_to_addr(self.network + offset)

    def __str__(self) -> str:
        return f"{int_to_addr(self.network)}/{self.length}"


def same_slash30(a: Address, b: Address) -> bool:
    """True if the two addresses share a /30 (point-to-point subnet)."""
    return (addr_to_int(a) >> 2) == (addr_to_int(b) >> 2)


def same_slash31(a: Address, b: Address) -> bool:
    """True if the two addresses share a /31."""
    return (addr_to_int(a) >> 1) == (addr_to_int(b) >> 1)


def slash30_peer(addr: Address) -> Optional[Address]:
    """Return the other usable host address of *addr*'s /30, if any.

    In the conventional /30 point-to-point allocation the two usable
    hosts are offsets 1 and 2; offsets 0 and 3 are the network and
    broadcast addresses and have no peer.
    """
    value = addr_to_int(addr)
    offset = value & 0x3
    if offset == 1:
        return int_to_addr(value + 1)
    if offset == 2:
        return int_to_addr(value - 1)
    return None


class PrefixTable:
    """Longest-prefix-match table mapping prefixes to opaque values.

    Implemented as per-length hash tables scanned from the longest
    registered length downward, which is simple and fast enough for the
    table sizes in this library (tens of thousands of prefixes).

    Lookups memoize the longest matching prefix per address (the
    probing workload resolves the same destinations over and over);
    :meth:`insert` flushes the memo, so a re-announced or more-specific
    prefix is always honoured.
    """

    def __init__(self) -> None:
        self._by_length: dict = {}
        self._lengths: List[int] = []
        self._prefix_cache: dict = {}
        self.cache_hits = 0
        self.cache_misses = 0

    def insert(self, prefix: Prefix, value: object) -> None:
        """Insert or replace the value for *prefix*."""
        table = self._by_length.get(prefix.length)
        if table is None:
            table = {}
            self._by_length[prefix.length] = table
            self._lengths = sorted(self._by_length, reverse=True)
        table[prefix.network] = value
        self.flush_lookup_cache()

    def flush_lookup_cache(self) -> None:
        """Drop memoized lookup results (table contents changed)."""
        if self._prefix_cache:
            self._prefix_cache.clear()

    @property
    def cached_lookups(self) -> int:
        """Number of memoized lookup results currently held."""
        return len(self._prefix_cache)

    def lookup(self, addr: Address) -> Optional[object]:
        """Return the value of the longest matching prefix, or None."""
        prefix: Optional[Prefix] = self.lookup_prefix(addr)
        if prefix is None:
            return None
        return self._by_length[prefix.length][prefix.network]

    def lookup_prefix(self, addr: Address) -> Optional[Prefix]:
        """Return the longest matching prefix itself, or None."""
        hit = self._prefix_cache.get(addr, _MISS)
        if hit is not _MISS:
            self.cache_hits += 1
            return hit
        self.cache_misses += 1
        value = addr_to_int(addr)
        result = None
        for length in self._lengths:
            mask = 0 if length == 0 else (~0 << (32 - length)) & _MAX_IPV4
            network = value & mask
            if network in self._by_length[length]:
                result = Prefix(network, length)
                break
        self._prefix_cache[addr] = result
        return result

    def __len__(self) -> int:
        return sum(len(t) for t in self._by_length.values())


_MISS = object()
