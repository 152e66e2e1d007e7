"""Per-hop forwarding decisions: ECMP choice, load balancing, violations.

Separated from the walker so the decision semantics — what is
destination-based, what depends on the flow, what depends on the packet —
are auditable in one place:

* a plain router picks the first equal-cost candidate: strictly
  destination-based;
* a load balancer hashes the flow id for option-less packets (Paris
  traceroute keeps the flow id fixed to see one consistent path) and
  hashes a *different*, per-router key for option-carrying packets, so
  RR/TS probes can take other paths than plain packets across the same
  load balancer — the observation in Appendix E.  The option-packet key
  is a pure function of the packet and the router, never of probing
  history, so any schedule of probes (serial, batched, deduplicated,
  sharded) sees identical outcomes for identical packets;
* a destination-based-routing violator hashes the packet's source
  address: the same destination gets different next hops for different
  sources, which is exactly the violation Appendix E quantifies.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.net.addr import Address
from repro.net.host import Host
from repro.net.packet import Probe
from repro.net.router import Router


#: :class:`FibEntry` kinds.  ``DELIVER`` is a forced single next hop
#: (directly connected delivery, or a plain router's destination-based
#: tie-break folded into the entry); ``ECMP`` carries an equal-cost
#: candidate list whose per-packet pick stays outside the cache;
#: ``ERROR`` is a deterministic dead end; ``DST`` marks the router that
#: owns the destination interface (deliver here); ``LAN`` marks the
#: anchor edge router that hands the packet to the destination host's
#: LAN (stamp, then deliver).
FIB_DELIVER = 0
FIB_ECMP = 1
FIB_ERROR = 2
FIB_DST = 3
FIB_LAN = 4


class FibEntry:
    """The deterministic part of one forwarding decision, memoizable.

    A slot of ``Internet._fib`` — one per ``(announcement, destination,
    router)`` — holds everything about that hop of ``Internet._walk``
    that does *not* depend on the individual packet: delivery
    detection, resolved intra-AS target, egress-border pick, equal-cost
    candidates.  Which entry a slot holds depends on all three; what a
    DELIVER or ECMP entry says depends only on the router and its next
    hop(s), so there is one object per ``(router, next router)`` (or
    candidate tuple) per routing generation, held by every slot that
    resolves to it and read-only once built — except the primary entry
    of an AS-level DBR violator, private because its ``alt`` depends on
    the announcement.
    The flow/packet-dependent pieces (load-balancer hashing,
    DBR-violator source hashing, Paris flow ids) are applied by the
    walker on top of the entry, so cached and uncached forwarding are
    bit-identical.

    Attributes:
        kind: one of :data:`FIB_DELIVER`, :data:`FIB_ECMP`,
            :data:`FIB_ERROR`, :data:`FIB_DST`, :data:`FIB_LAN`.
        candidates: next-hop router ids (one for DELIVER, the sorted
            equal-cost set for ECMP, empty for terminal kinds).
        via: for DELIVER, the precomputed ``(next_router, egress_addr,
            next_ingress)`` link triple, so the hot loop skips the
            adjacency lookups entirely.
        adj: for ECMP, the router's adjacency row mapping candidate ->
            ``(egress_addr, next_ingress)``.
        reason: for ERROR entries, why the router has no next hop
            (diagnostic only; the walker just stops).
        alt: at an AS-level DBR-violating border router, the entry for
            the loop-safe alternate next AS; the walker hashes the
            packet source to pick between the two on first visit.
        generation: routing generation the entry was computed under;
            entries from older generations are treated as misses, so
            traffic-engineering announcement changes can never be
            served stale routes.  A shared entry keeps the stamp it was
            built with, which is why there is one per generation.
    """

    __slots__ = (
        "kind", "candidates", "via", "adj", "reason", "alt", "generation"
    )

    def __init__(
        self,
        kind: int,
        candidates: Tuple[int, ...] = (),
        reason: str = "",
        alt: Optional["FibEntry"] = None,
        generation: int = 0,
    ) -> None:
        self.kind = kind
        self.candidates = candidates
        self.via: Optional[Tuple[int, Address, Address]] = None
        self.adj: Optional[Dict] = None
        self.reason = reason
        self.alt = alt
        self.generation = generation

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        label = {
            FIB_DELIVER: "deliver",
            FIB_ECMP: "ecmp",
            FIB_ERROR: "error",
            FIB_DST: "dst",
            FIB_LAN: "lan",
        }
        return (
            f"FibEntry({label[self.kind]}, {self.candidates or self.reason}"
            f", gen={self.generation})"
        )


@dataclass
class DestTarget:
    """Resolved delivery target(s) of a destination address.

    Attributes:
        dst: the probed address.
        anchors: asn -> router to route toward inside that AS. Normally
            a single entry; anycast prefixes have one per origin site.
        host: set when the destination is an end host.
        owner_router: set when the destination is a router interface.
        link_endpoints: for a /30 link interface, both endpoint router
            ids. Real IGPs route to the connected subnet, so a packet
            for the interface is delivered via the *nearest* endpoint
            and crosses the link if it arrived at the far side — this
            is why the penultimate traceroute hop toward an interface
            is so often the other end of its link (§4.4).
    """

    dst: Address
    anchors: Dict[int, int]
    host: Optional[Host] = None
    owner_router: Optional[int] = None
    link_endpoints: Optional[Tuple[int, int]] = None


def choose_candidate(
    router: Router,
    candidates: List[int],
    probe: Probe,
) -> int:
    """Pick one of the equal-cost *candidates* at *router*.

    Every branch is a deterministic hash of (packet, router) fields:
    forwarding is a pure function of the packet, with no hidden state
    shared between probes.  That property is what lets the batched
    prober, the RR-atlas probe deduplicator, and snapshot warm starts
    guarantee byte-identical outcomes to serial probing.
    """
    if len(candidates) == 1:
        return candidates[0]
    if router.dbr_violator:
        index = zlib.crc32(
            f"{probe.src}|{router.router_id}".encode()
        ) % len(candidates)
        return candidates[index]
    if router.is_load_balancer:
        if probe.has_options:
            # Option packets are punted off the fast hardware path on
            # real load balancers, so they spread differently from the
            # plain-packet flow hash: include the router id and an
            # options tag so the spread decorrelates from the
            # option-less choice below.
            index = zlib.crc32(
                f"{probe.src}|{probe.dst}|{probe.flow_id}"
                f"|{router.router_id}|opt".encode()
            ) % len(candidates)
            return candidates[index]
        index = zlib.crc32(
            f"{probe.src}|{probe.dst}|{probe.flow_id}".encode()
        ) % len(candidates)
        return candidates[index]
    # Plain routers break equal-cost ties per destination: strictly
    # destination-based, but direction-asymmetric — one source of the
    # router-level asymmetry the paper measures even on AS-symmetric
    # paths (§6.2).
    index = zlib.crc32(
        f"{router.router_id}|{probe.dst}".encode()
    ) % len(candidates)
    return candidates[index]
