"""Probe and reply packet models.

A :class:`Probe` is what a vantage point injects; the simulator walks it
through the topology and produces an :class:`EchoReply`.  A traceroute
sends one probe at every TTL, and ``Internet.send_ttl_sweep`` reads each
TTL's :class:`TracerouteReply` off the probe's one forward walk.  The
``spoofed_from`` field captures the paper's key trick (Insight 1.3): the
probe's source address may name a *different* host than the injecting
vantage point, so that the echo reply travels the reverse path toward
the spoofed source.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional

from repro.net.addr import Address
from repro.net.options import RecordRouteOption, TimestampOption


class ProbeKind(enum.Enum):
    """Wire-level probe categories, matching Table 4's packet types."""

    PING = "ping"
    RECORD_ROUTE = "rr"
    SPOOFED_RECORD_ROUTE = "spoof-rr"
    TIMESTAMP = "ts"
    SPOOFED_TIMESTAMP = "spoof-ts"
    TRACEROUTE = "traceroute"
    SNMP = "snmp"


@dataclass
class Probe:
    """An ICMP echo request (optionally spoofed).

    Attributes:
        src: source address written in the IP header. When spoofing,
            this is the address of the system's source S, not of the
            vantage point that injects the packet.
        dst: destination address.
        kind: probe category for budget accounting.
        injected_at: address of the host that actually transmits the
            packet (equals ``src`` unless spoofing).
        flow_id: Paris-traceroute flow identifier. Load-balancers hash
            this for per-flow balancing of option-less packets.
        record_route: attached record-route option, if any.
        timestamp: attached tsprespec option, if any.
    """

    src: Address
    dst: Address
    kind: ProbeKind = ProbeKind.PING
    injected_at: Optional[Address] = None
    flow_id: int = 0
    record_route: Optional[RecordRouteOption] = None
    timestamp: Optional[TimestampOption] = None

    def __post_init__(self) -> None:
        if self.injected_at is None:
            self.injected_at = self.src

    @property
    def is_spoofed(self) -> bool:
        return self.injected_at != self.src

    @property
    def has_options(self) -> bool:
        return self.record_route is not None or self.timestamp is not None


@dataclass
class EchoReply:
    """Reply to an echo request that reached its destination.

    The options are the state of the probe's options *after the reply
    has been routed back to the probe's source address*, i.e. including
    stamps collected on the reverse path.
    """

    src: Address
    dst: Address
    record_route: Optional[RecordRouteOption] = None
    timestamp: Optional[TimestampOption] = None
    rtt: float = 0.0
    ipid: int = 0

    @property
    def rr_slots(self):
        if self.record_route is None:
            return []
        return self.record_route.slots


@dataclass
class TracerouteReply:
    """ICMP time-exceeded from an intermediate router.

    ``hop_addr`` is None for an unresponsive hop (rendered as ``*``).
    """

    hop_addr: Optional[Address]
    rtt: float = 0.0
    reached: bool = False


@dataclass
class TracerouteResult:
    """A full (forward) traceroute: ordered hops from source toward dst.

    Hops may be None (``*``). ``reached`` records whether the probe
    sequence got an echo reply from the destination itself.
    """

    src: Address
    dst: Address
    hops: list = field(default_factory=list)
    reached: bool = False
    flow_id: int = 0
    timestamp: float = 0.0

    def responsive_hops(self) -> list:
        """Return the non-``*`` hop addresses, in order."""
        return [hop for hop in self.hops if hop is not None]

    def __iter__(self):
        return iter(self.hops)
