"""Network substrate: IPv4 addresses, packets, IP options, and routers.

This package models the on-the-wire behaviour Reverse Traceroute depends
on: ICMP echo probes carrying IP options (record route, prespecified
timestamps), router interfaces with per-router stamping policies, and
the reply semantics (options are copied into the echo reply and continue
to be processed on the reverse path).
"""

from repro.net.addr import (
    Address,
    Prefix,
    addr_to_int,
    int_to_addr,
    prefix_of,
    same_slash30,
    same_slash31,
    slash30_peer,
)
from repro.net.options import (
    RECORD_ROUTE_SLOTS,
    TIMESTAMP_SLOTS,
    RecordRouteOption,
    TimestampOption,
)
from repro.net.packet import EchoReply, Probe, ProbeKind, TracerouteReply
from repro.net.router import (
    Interface,
    InterfaceRole,
    Router,
    RRStampPolicy,
)

__all__ = [
    "Address",
    "Prefix",
    "addr_to_int",
    "int_to_addr",
    "prefix_of",
    "same_slash30",
    "same_slash31",
    "slash30_peer",
    "RECORD_ROUTE_SLOTS",
    "TIMESTAMP_SLOTS",
    "RecordRouteOption",
    "TimestampOption",
    "EchoReply",
    "Probe",
    "ProbeKind",
    "TracerouteReply",
    "Interface",
    "InterfaceRole",
    "Router",
    "RRStampPolicy",
]
