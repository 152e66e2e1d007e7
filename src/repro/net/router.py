"""Router and interface models.

A router owns a set of interfaces (its IP aliases). The measurement
artifacts the paper wrestles with all originate here:

* traceroute replies classically carry the *ingress* interface of the
  link the probe arrived on (a common but non-standard behaviour,
  Appendix B.1), while record route stamps typically carry the *egress*
  interface of the outgoing link — so the two views of the same router
  rarely share an address, motivating the RR-atlas technique (§4.2);
* routers differ in RR stamping policy: some stamp loopbacks, some
  stamp private addresses, some do not stamp at all (Appendix C);
* a subset of routers answer unsolicited SNMPv3 with a stable engine
  identifier, giving reliable alias ground truth (§4.4);
* routers share a monotonically increasing IP-ID counter across their
  interfaces, which is what MIDAR-style alias resolution measures.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.net.addr import Address


class InterfaceRole(enum.Enum):
    """What an interface is attached to."""

    LOOPBACK = "loopback"
    LINK = "link"  # numbered /30 point-to-point interface
    LAN = "lan"  # interface into an edge (host) subnet


class RRStampPolicy(enum.Enum):
    """How a router fills record-route slots (Appendix C artifacts)."""

    EGRESS = "egress"  # stamp the outgoing interface (classic)
    INGRESS = "ingress"  # stamp the incoming interface
    LOOPBACK = "loopback"  # always stamp the loopback
    PRIVATE = "private"  # stamp an RFC1918 management address
    NO_STAMP = "no-stamp"  # forward without stamping


@dataclass
class Interface:
    """A router interface: one IP alias of the router."""

    addr: Address
    router_id: int
    neighbor_router_id: Optional[int] = None

    def __hash__(self) -> int:
        return hash(self.addr)


_router_ids = itertools.count()


@dataclass
class Router:
    """A router with its aliases and measurement-relevant behaviour.

    Attributes:
        router_id: unique integer identity (the alias ground truth).
        asn: the AS that owns and operates this router. Border routers
            are owned by one side of an interdomain link even though
            interfaces on the link may be numbered from either side's
            space — the root of the IP-to-AS mapping difficulty (B.2).
        interfaces: all interfaces, keyed by address.
        loopback: the loopback address.
        rr_policy: record-route stamping behaviour.
        responds_to_options / responds_to_ttl: responsiveness knobs;
            options-responsiveness is the paper's 78% figure (Appendix
            F).  Every router answers an option-less ping.
        snmpv3_responsive: answers unsolicited SNMPv3 with engine id.
        supports_timestamp: honours tsprespec options.
        ipid_shared: shares one IP-ID counter across interfaces (the
            signal MIDAR-style probing resolves aliases from).  Every
            reply carries the counter as ``Packet.ipid``; no engine
            reads it (their MIDAR-derived aliases are the ITDK dataset
            of :mod:`repro.alias.itdk`), but the walk oracles in
            ``tests/test_fwd_fastpath.py`` / ``tests/test_ttl_sweep.py``
            compare it reply for reply, which pins the order in which
            the simulator generates replies.
        is_load_balancer: installs multiple equal next hops and splits
            flows across them (per packet for option-carrying packets).
        private_addr: management address used by PRIVATE stampers.
    """

    router_id: int = field(default_factory=lambda: next(_router_ids))
    asn: int = 0
    interfaces: Dict[Address, Interface] = field(default_factory=dict)
    loopback: Optional[Address] = None
    rr_policy: RRStampPolicy = RRStampPolicy.EGRESS
    responds_to_options: bool = True
    responds_to_ttl: bool = True
    snmpv3_responsive: bool = False
    supports_timestamp: bool = True
    ipid_shared: bool = True
    is_load_balancer: bool = False
    dbr_violator: bool = False
    dbr_as_violator: bool = False
    private_addr: Optional[Address] = None
    _ipid: int = 0

    def add_interface(
        self,
        addr: Address,
        role: InterfaceRole,
        neighbor_router_id: Optional[int] = None,
    ) -> Interface:
        """Attach a new interface and return it."""
        iface = Interface(addr, self.router_id, neighbor_router_id)
        self.interfaces[addr] = iface
        if role is InterfaceRole.LOOPBACK:
            self.loopback = addr
        return iface

    def addresses(self) -> List[Address]:
        """Return every public alias of this router."""
        return list(self.interfaces)

    def owns(self, addr: Address) -> bool:
        """True if *addr* is an alias of this router."""
        return addr in self.interfaces or addr == self.private_addr

    def rr_stamp_address(
        self,
        ingress_addr: Optional[Address],
        egress_addr: Optional[Address],
    ) -> Optional[Address]:
        """Choose the address to write into a record-route slot.

        Returns None when the router's policy is not to stamp (or the
        policy's preferred address does not exist, in which case we
        fall back in the order egress, ingress, loopback).
        """
        if self.rr_policy is RRStampPolicy.NO_STAMP:
            return None
        if self.rr_policy is RRStampPolicy.PRIVATE:
            return self.private_addr or self.loopback
        if self.rr_policy is RRStampPolicy.LOOPBACK:
            return self.loopback or egress_addr or ingress_addr
        if self.rr_policy is RRStampPolicy.INGRESS:
            return ingress_addr or egress_addr or self.loopback
        return egress_addr or ingress_addr or self.loopback

    def traceroute_reply_address(
        self, ingress_addr: Optional[Address]
    ) -> Optional[Address]:
        """Address written in a time-exceeded reply (the ingress)."""
        if not self.responds_to_ttl:
            return None
        return ingress_addr or self.loopback

    def next_ipid(self) -> int:
        """Advance and return the shared IP-ID counter."""
        self._ipid = (self._ipid + 1) & 0xFFFF
        return self._ipid

    def snmpv3_engine_id(self) -> Optional[str]:
        """Stable engine identifier, or None if not SNMPv3-responsive."""
        if not self.snmpv3_responsive:
            return None
        return f"engine-{self.router_id:08x}"

    def __hash__(self) -> int:
        return self.router_id

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Router):
            return NotImplemented
        return self.router_id == other.router_id
