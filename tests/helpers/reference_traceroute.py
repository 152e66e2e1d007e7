"""Reference Paris traceroute: the test oracle.

This is ``repro.probing.traceroute.paris_traceroute`` exactly as it
stood before TTL sweeps: one :class:`Probe` per TTL, each sent through
:func:`send_ttl_probe` and therefore walked from the first router, and
each charged on its own - one counter call, one token-bucket
``acquire`` and two clock advances per TTL.  It is kept verbatim so
that ``tests/test_ttl_sweep.py`` can require the sweep-based
implementation, which charges a fault-free run of TTLs at once, to
return the same :class:`TracerouteResult` and leave the clock, the
token buckets, the probe counters, the simulator's tallies and a fault
injector's draw state exactly where this one does.

:func:`send_ttl_probe` is the definition of a TTL-limited packet both
are held to: ``Internet._tally_outcome``, ``_send_probe``, ``_walk``
(with its per-hop TTL check) and ``_time_exceeded`` as they stood while
``Probe`` carried a TTL, verbatim but for the TTL, which is passed as an
argument, and the time-exceeded reply, which a :class:`TTLOutcome`
carries.  ``src/`` expires a TTL in one place, ``Internet._expiry``,
reading the reply off a walk that has no TTL.  Test-only: nothing
under ``src/`` imports it.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.net.addr import Address
from repro.net.options import (
    RECORD_ROUTE_SLOTS,
    RecordRouteOption,
    TimestampOption,
)
from repro.net.packet import (
    EchoReply,
    Probe,
    ProbeKind,
    TracerouteReply,
    TracerouteResult,
)
from repro.net.router import Router
from repro.probing.prober import LOSS_TIMEOUT, Prober
from repro.sim.forwarding import (
    FIB_DELIVER,
    FIB_DST,
    FIB_ECMP,
    FIB_LAN,
    DestTarget,
    choose_candidate,
)
from repro.sim.network import MAX_HOPS, ProbeOutcome

#: Inter-probe pacing charged per TTL step.
_PACING = 0.05

#: Default TTL horizon.
MAX_TTL = 32


def reference_paris_traceroute(
    prober: Prober,
    src: Address,
    dst: Address,
    max_ttl: int = MAX_TTL,
    flow_id: int = 0,
) -> TracerouteResult:
    """Run a Paris traceroute from *src* toward *dst*, a walk per TTL."""
    internet = prober.internet
    result = TracerouteResult(
        src=src, dst=dst, flow_id=flow_id, timestamp=prober.clock.now()
    )
    consecutive_stars = 0
    for ttl in range(1, max_ttl + 1):
        prober.counter.record(ProbeKind.TRACEROUTE)
        prober._bucket(src).acquire()
        probe = Probe(src=src, dst=dst, flow_id=flow_id)
        outcome = send_ttl_probe(internet, probe, ttl)
        prober.clock.advance(_PACING)
        if outcome.te_reply is not None:
            reply = outcome.te_reply
            prober.clock.advance(reply.rtt)
            result.hops.append(reply.hop_addr)
            if reply.hop_addr is None:
                consecutive_stars += 1
            else:
                consecutive_stars = 0
            if reply.reached:
                result.reached = True
                break
            if consecutive_stars >= 4:
                break
            continue
        if outcome.delivered:
            # TTL outlived the path: the destination itself answered.
            rtt = outcome.echo.rtt if outcome.echo else 0.0
            prober.clock.advance(rtt)
            result.hops.append(dst)
            result.reached = True
            break
        prober.clock.advance(LOSS_TIMEOUT)
        result.hops.append(None)
        consecutive_stars += 1
        if consecutive_stars >= 4:
            break
    return result


@dataclass
class TTLOutcome(ProbeOutcome):
    """A probe's fate, with the time-exceeded reply of a TTL that ran
    out on the way."""

    te_reply: Optional[TracerouteReply] = None


def send_ttl_probe(internet, probe: Probe, ttl: int) -> TTLOutcome:
    """*probe* sent at TTL *ttl* and tallied, as ``Internet.send_probe``
    sent a probe that carried that TTL."""
    return _tally_outcome(internet, _send_probe(internet, probe, ttl))


# -- ``Internet``'s TTL-limited probe path, verbatim --------------------


def _tally_outcome(self, outcome: ProbeOutcome) -> ProbeOutcome:
    self._obs_hops += len(outcome.forward_router_path) + len(
        outcome.reply_router_path
    )
    if outcome.delivered:
        self._obs_outcomes["delivered"] += 1
    elif outcome.te_reply is not None:
        self._obs_outcomes["ttl-expired"] += 1
    else:
        self._obs_outcomes["dropped"] += 1
        reason = outcome.drop_reason
        if reason is not None:
            self._obs_drops[reason] = (
                self._obs_drops.get(reason, 0) + 1
            )
    return outcome


def _send_probe(self, probe: Probe, ttl: int) -> TTLOutcome:
    outcome = TTLOutcome()
    faults = self.faults
    origin_host = self.hosts.get(probe.injected_at)
    if origin_host is None:
        outcome.drop_reason = "unknown-injection-point"
        return outcome
    if probe.is_spoofed and not self.graph.nodes[
        origin_host.asn
    ].allows_spoofing:
        outcome.drop_reason = "spoof-filtered"
        return outcome
    if faults is not None:
        reason = faults.pre_send(probe)
        if reason is not None:
            outcome.drop_reason = reason
            return outcome

    target = self.resolve(probe.dst)
    if target is None:
        outcome.drop_reason = "unreachable-destination"
        return outcome
    if target.spec is None:
        outcome.drop_reason = "no-announcement"
        return outcome

    rr = probe.record_route
    ts = probe.timestamp
    delivered, responder_addr, hop_count, path, te = _walk(
        self,
        start_router=origin_host.edge_router_id,
        target=target,
        probe=probe,
        rr=rr,
        ts=ts,
        ttl=ttl,
        faults=faults,
    )
    outcome.forward_router_path = path
    if te is not None:
        outcome.te_reply = te
        return outcome
    if not delivered or responder_addr is None:
        outcome.drop_reason = "forward-path-drop"
        if faults is not None:
            reason = faults.consume_reason()
            if reason is not None:
                outcome.drop_reason = reason
        return outcome

    # Destination responsiveness and its own option processing.
    if not self._destination_responds(responder_addr, probe):
        outcome.drop_reason = "destination-unresponsive"
        return outcome
    if faults is not None and faults.responder_suppressed(
        self.router_of(responder_addr)
    ):
        outcome.drop_reason = faults.consume_reason()
        return outcome
    self._destination_stamp(responder_addr, probe, rr, ts)

    # Route the echo reply back to the probe's source address.
    reply_target = self.resolve(probe.src)
    if reply_target is None or reply_target.spec is None:
        outcome.drop_reason = "reply-unroutable"
        return outcome
    reply_probe = Probe(
        src=responder_addr,
        dst=probe.src,
        kind=probe.kind,
        flow_id=probe.flow_id,
        record_route=rr,
        timestamp=ts,
    )
    start = self._reply_start_router(responder_addr)
    delivered, _, reply_hops, reply_path, _ = _walk(
        self,
        start_router=start,
        target=reply_target,
        probe=reply_probe,
        rr=rr,
        ts=ts,
        ttl=None,
        faults=faults,
    )
    outcome.reply_router_path = reply_path
    if not delivered:
        outcome.drop_reason = "reply-path-drop"
        if faults is not None:
            reason = faults.consume_reason()
            if reason is not None:
                outcome.drop_reason = reason
        return outcome

    latency = self.config.link_latency_ms / 1000.0
    rtt = (hop_count + reply_hops + 2) * latency
    outcome.delivered = True
    outcome.echo = EchoReply(
        src=responder_addr,
        dst=probe.src,
        record_route=rr,
        timestamp=ts,
        rtt=rtt,
        ipid=self._next_ipid(responder_addr),
    )
    return outcome


def _walk(
    self,
    start_router: int,
    target: DestTarget,
    probe: Probe,
    rr: Optional[RecordRouteOption],
    ts: Optional[TimestampOption],
    ttl: Optional[int],
    faults,
) -> Tuple[bool, Optional[Address], int, List[int], Optional[TracerouteReply]]:
    """Walk from *start_router* toward *target*, filling its row.

    *faults* is the injector whose hooks the walk consults, or
    ``None`` for a fault-free walk (no hook runs, whatever
    ``self.faults`` holds).

    Returns (delivered, responder_addr, hops, router_path, te_reply).
    """
    current = start_router
    ingress_addr: Optional[Address] = None
    hops = 0
    path: List[int] = []
    dst = target.dst
    fib = target.row
    routers = self.routers
    crc32 = zlib.crc32
    lossy = faults is not None and faults.has_link_loss
    # RR slots still open (``None`` once full: transit routers stop
    # stamping, and nothing else reads the option on the way).
    slots = (
        rr.slots
        if rr is not None and len(rr.slots) < RECORD_ROUTE_SLOTS
        else None
    )

    # The loop body below is the whole forwarding decision, FIB
    # dispatch inlined (plus delivery/TTL handling via the terminal
    # entry kinds): at tens of thousands of hops per measurement
    # stream, a per-hop function call and adjacency lookups would
    # be a measurable slice of campaign runtime.
    while hops < MAX_HOPS:
        router = routers[current]
        hops += 1
        path.append(current)

        entry = fib.get(current)
        if entry is None:
            self._fib_entries += 1
            entry = self._compute_fib_entry(router, target)
            fib[current] = entry
            self._fib_misses += 1
        else:
            self._fib_hits += 1
        kind = entry.kind

        # TTL expiry check (the router that decrements to zero).
        if ttl is not None and hops == ttl:
            te = _time_exceeded(
                self, router, ingress_addr, ttl, dst, kind == FIB_DST, faults
            )
            return False, None, hops, path, te

        # Delivery: this router owns the destination interface, or
        # is the edge router handing the packet to the host's LAN.
        if kind == FIB_DST:
            return True, dst, hops, path, None
        if kind == FIB_LAN:
            if slots is not None:
                stamp = router.rr_stamp_address(ingress_addr, None)
                if stamp is not None:
                    slots.append(stamp)
            if ts is not None:
                self._ts_stamp(router, ts)
            return True, dst, hops, path, None

        if entry.alt is not None and path.index(current) == hops - 1:
            # AS-level DBR violation: the router hashes the packet
            # source to deviate toward the alternate next AS (§E).
            # First visit only: two deviating routers could bounce
            # a packet between their ASes forever; on a re-visit
            # the best route is loop-free by the tree property.
            if crc32(f"{probe.src}|{router.asn}".encode()) & 1:
                entry = entry.alt
                kind = entry.kind

        if kind == FIB_DELIVER:
            next_router, egress_addr, next_ingress = entry.via
        elif kind == FIB_ECMP:
            next_router = choose_candidate(
                router, entry.candidates, probe
            )
            egress_addr, next_ingress = entry.adj[next_router]
        else:  # FIB_ERROR: deterministic dead end.
            return False, None, hops, path, None

        if lossy and faults.link_drops(current, next_router):
            return False, None, hops, path, None
        if slots is not None:
            stamp = router.rr_stamp_address(ingress_addr, egress_addr)
            if stamp is not None:
                slots.append(stamp)
                if len(slots) >= RECORD_ROUTE_SLOTS:
                    slots = None
        if ts is not None:
            self._ts_stamp(router, ts)
        ingress_addr = next_ingress
        current = next_router

    return False, None, hops, path, None


def _time_exceeded(
    self,
    router: Router,
    ingress_addr: Optional[Address],
    ttl: int,
    dst: Address,
    at_destination: bool,
    faults,
) -> TracerouteReply:
    """The reply to a packet whose TTL ran out at *router*, *ttl*
    hops in, having entered through *ingress_addr* (``None`` at the
    first router).  *at_destination*: the router owns *dst*."""
    rtt = 2 * ttl * (self.config.link_latency_ms / 1000.0)
    if at_destination:
        return TracerouteReply(dst, rtt, True)
    reply_addr = router.traceroute_reply_address(ingress_addr)
    if (
        reply_addr is not None
        and faults is not None
        and faults.has_router_faults
        and faults.te_suppressed(router.router_id)
    ):
        # Rate-limited/filtered routers stop answering
        # TTL-expired too: the hop reads as "*".
        reply_addr = None
    return TracerouteReply(reply_addr, rtt, False)
