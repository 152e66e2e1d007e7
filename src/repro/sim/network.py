"""The simulated Internet: topology container and packet walker.

:class:`Internet` holds everything the generator built — AS graph,
routers, links, prefixes, hosts — plus the forwarding machinery. Its
central method, :meth:`Internet.send_probe`, walks a probe hop-by-hop
to its destination and routes the reply back to the probe's (possibly
spoofed) source, applying record-route stamping, timestamp prespec
matching, and the load-balancing / destination-based-routing quirks
along the way.  :meth:`Internet.send_ttl_sweep` sends a traceroute's
TTLs, reading each one's time-exceeded reply off one forward walk.
"""

from __future__ import annotations

import hashlib
import json
import zlib
from copy import copy
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

from repro.net.addr import Address, Prefix, PrefixTable
from repro.net.host import Host
from repro.net.options import (
    RECORD_ROUTE_SLOTS,
    RecordRouteOption,
    TimestampOption,
)
from repro.net.packet import EchoReply, Probe, TracerouteReply
from repro.net.router import Router
from repro.sim.forwarding import (
    FIB_DELIVER,
    FIB_DST,
    FIB_ECMP,
    FIB_ERROR,
    FIB_LAN,
    DestTarget,
    FibEntry,
    choose_candidate,
)
from repro.topology.asgraph import ASGraph
from repro.topology.config import TopologyConfig
from repro.topology.policy import AnnouncementSpec, RoutingPolicy

#: Safety bound on router hops per one-way walk.
MAX_HOPS = 64

#: Cache-miss sentinel (``None`` is a valid cached value).
_MISS = object()


@dataclass
class PrefixInfo:
    """A BGP prefix: origin AS, attachment point, and hosts."""

    prefix: Prefix
    origin_asn: int
    edge_router_id: Optional[int]
    hosts: Dict[Address, Host] = field(default_factory=dict)
    is_infrastructure: bool = False

    def add_host(self, host: Host) -> None:
        """Attach *host* to the prefix."""
        self.hosts[host.addr] = host


@dataclass
class ProbeOutcome:
    """Everything the simulator knows about one probe's fate.

    The ``*_router_path`` fields are ground truth that no real
    measurement system gets to see; tests and the "optimal" baselines
    of the experiments use them, the revtr pipeline never does.
    """

    delivered: bool = False
    echo: Optional[EchoReply] = None
    forward_router_path: List[int] = field(default_factory=list)
    reply_router_path: List[int] = field(default_factory=list)
    drop_reason: Optional[str] = None


class Internet:
    """Container for the generated topology plus the forwarding engine."""

    def __init__(
        self,
        config: TopologyConfig,
        graph: ASGraph,
        policy: RoutingPolicy,
    ) -> None:
        self.config = config
        self.graph = graph
        self.policy = policy

        self.routers: Dict[int, Router] = {}
        self.routers_by_as: Dict[int, List[int]] = {}
        self.hosts: Dict[Address, Host] = {}
        self.prefixes: Dict[Prefix, PrefixInfo] = {}
        self.prefix_table = PrefixTable()

        #: interface address -> owning router id
        self.iface_owner: Dict[Address, int] = {}
        #: interface address -> router to route toward (differs from the
        #: owner when an interdomain /30 is numbered from the far side)
        self.iface_anchor: Dict[Address, int] = {}
        #: directed adjacency: router -> neighbour router ->
        #: (egress addr on router, ingress addr on neighbour)
        self.adjacency: Dict[int, Dict[int, Tuple[Address, Address]]] = {}
        #: intra-AS router adjacency lists
        self.intra_adj: Dict[int, List[int]] = {}
        #: asn -> neighbour asn -> [(local border, remote border)]
        self.borders: Dict[int, Dict[int, List[Tuple[int, int]]]] = {}
        #: announcement overrides (traffic engineering), written only
        #: by announce() / withdraw(); default is a unicast announcement
        #: from the prefix's origin AS
        self._announcements: Dict[Prefix, AnnouncementSpec] = {}
        #: anycast delivery points: prefix -> origin asn -> edge router,
        #: likewise; each inner dict is announce()'s own copy, which the
        #: targets resolved under it share read-only
        self._anycast_anchors: Dict[Prefix, Dict[int, int]] = {}

        self.mlab_hosts: List[Address] = []
        self.atlas_hosts: List[Address] = []

        #: Probe outcomes, router hops traversed, and drops by reason:
        #: plain tallies, read through :attr:`probe_outcome_counts`
        #: and by the walk-equality oracles in ``tests/``.
        self._obs_outcomes = {"delivered": 0, "ttl-expired": 0, "dropped": 0}
        self._obs_hops = 0
        self._obs_drops: Dict[str, int] = {}

        #: fault injector (:class:`repro.sim.faults.FaultInjector`) or
        #: ``None``.  Every hook sits behind this attribute check, so a
        #: fault-free run pays one attribute read per probe and stays
        #: byte-identical to a build without the chaos harness.
        self.faults = None

        self._ipid_counters: Dict[Address, int] = {}
        self._intra_next: Dict[Tuple[int, int], Dict[int, List[int]]] = {}
        self._intra_dist: Dict[Tuple[int, int], Dict[int, int]] = {}
        self._alt_next_as: Dict[Tuple[int, AnnouncementSpec], Optional[int]] = {}

        # -- forwarding memos -------------------------------------------
        # Each is dropped by the call that changes what it read:
        # connect() (the link set), announce() / withdraw() (an
        # announcement) or an invalidate_routing() whose compiled AS
        # view moved (routes and cold_potato).
        #: routing generation, bumped by announce(), withdraw(), every
        #: invalidate_routing() and a connect() that drops the rows: the
        #: segment cache, the atlases and snapshots stamp what they store
        #: with it
        self.routing_generation = 0
        #: (router, next AS) -> the equal-cost next hops of the egress
        #: pick, or the reason there is none; reads the link set and the
        #: AS's cold_potato, no address and no announcement
        self._egress: Dict[Tuple[int, int], Union[str, List[int]]] = {}
        #: (router, next router) -> the one FIB_DELIVER entry that every
        #: row slot forwarding over that link refers to; (router,
        #: candidate tuple) -> the one FIB_ECMP entry, likewise; reads
        #: only the adjacency, so only connect() drops it
        self._link_entries: Dict[Tuple[int, object], FibEntry] = {}
        #: the one per-address memo: Internet.resolve() results, each
        #: carrying its announcement and FIB row; dropped by every call
        #: above and on any other topology mutation
        self._resolve_cache: Dict[Address, Optional[DestTarget]] = {}
        #: read-only values that memo shares, each a function of its
        #: key alone and so never dropped: the default announcement per
        #: origin AS, and the one-site anchor map per (AS, router)
        self._unicast_specs: Dict[int, AnnouncementSpec] = {}
        self._anchor_maps: Dict[Tuple[int, int], Dict[int, int]] = {}
        self._fib_hits = 0
        self._fib_misses = 0
        #: slots (not distinct entry objects) currently held across all
        #: FIB rows: bumped where :meth:`_walk` fills a new key, zeroed
        #: with ``_resolve_cache``, so reading it never walks it
        self._fib_entries = 0
        self._resolve_hits = 0
        self._resolve_misses = 0

    @property
    def probe_outcome_counts(self) -> Dict[str, int]:
        """Probes walked so far, keyed by outcome."""
        return dict(self._obs_outcomes)

    # ------------------------------------------------------------------
    # Construction helpers (used by the generator)
    # ------------------------------------------------------------------

    def add_router(self, router: Router) -> None:
        self.routers[router.router_id] = router
        self.routers_by_as.setdefault(router.asn, []).append(
            router.router_id
        )

    def add_host(self, host: Host) -> None:
        self.hosts[host.addr] = host
        self._flush_resolution_caches()

    def register_prefix(self, info: PrefixInfo) -> None:
        self.prefixes[info.prefix] = info
        self.prefix_table.insert(info.prefix, info)
        self._flush_resolution_caches()

    def register_interface(
        self, addr: Address, owner: int, anchor: Optional[int] = None
    ) -> None:
        self.iface_owner[addr] = owner
        self.iface_anchor[addr] = owner if anchor is None else anchor
        self._flush_resolution_caches()

    def _flush_resolution_caches(self) -> None:
        """Drop the resolved targets, and the FIB rows they carry,
        after topology mutation."""
        if self._resolve_cache:
            self._resolve_cache.clear()
            self._fib_entries = 0

    def _drop_resolved(self) -> None:
        """Start a routing generation that reads no target, and so no
        FIB row, resolved before it."""
        self.routing_generation += 1
        self._flush_resolution_caches()

    def _flush_topology_memos(self) -> None:
        """Drop what was computed from the link set before it changed:
        the IGP tables, the egress picks, the link entries and, once a
        walk has filled a row (rows fill nowhere else), the resolved
        targets.  Free until then: the generator's calls pay four truth
        tests."""
        if self._intra_next:
            self._intra_next.clear()
            self._intra_dist.clear()
        if self._egress:
            self._egress.clear()
        if self._link_entries:
            self._link_entries.clear()
        if self._fib_entries:
            self._drop_resolved()

    def connect(
        self,
        a: int,
        b: int,
        addr_a: Address,
        addr_b: Address,
    ) -> None:
        """Record a bidirectional /30 link between routers *a* and *b*."""
        self._flush_topology_memos()
        self.adjacency.setdefault(a, {})[b] = (addr_a, addr_b)
        self.adjacency.setdefault(b, {})[a] = (addr_b, addr_a)
        router_a, router_b = self.routers[a], self.routers[b]
        if router_a.asn == router_b.asn:
            self.intra_adj.setdefault(a, []).append(b)
            self.intra_adj.setdefault(b, []).append(a)
        else:
            self.borders.setdefault(router_a.asn, {}).setdefault(
                router_b.asn, []
            ).append((a, b))
            self.borders.setdefault(router_b.asn, {}).setdefault(
                router_a.asn, []
            ).append((b, a))

    def announce(
        self, prefix: Prefix, spec: AnnouncementSpec, anchors: Dict[int, int]
    ) -> None:
        """Announce *prefix* as *spec*, delivered at *anchors* (origin
        asn -> edge router; a copy is kept), in place of what it was
        announced as.  Starts a routing generation and drops the
        resolved targets with their rows, which read the announcement."""
        self._announcements[prefix] = spec
        self._anycast_anchors[prefix] = dict(anchors)
        self._drop_resolved()

    def withdraw(self, prefix: Prefix) -> None:
        """Return *prefix* to the default unicast announcement from its
        origin AS; drops what :meth:`announce` drops."""
        self._announcements.pop(prefix, None)
        self._anycast_anchors.pop(prefix, None)
        self._drop_resolved()

    def finalize(self) -> None:
        """Sort adjacency lists for deterministic candidate ordering."""
        for neighbors in self.intra_adj.values():
            neighbors.sort()
        for by_neighbor in self.borders.values():
            for pairs in by_neighbor.values():
                pairs.sort()

    # ------------------------------------------------------------------
    # Lookup helpers
    # ------------------------------------------------------------------

    def router_of(self, addr: Address) -> Optional[Router]:
        """Return the router owning interface *addr*, if any."""
        owner = self.iface_owner.get(addr)
        return None if owner is None else self.routers[owner]

    def host_prefixes(self) -> List[PrefixInfo]:
        """All announced prefixes that contain hosts."""
        return [
            info
            for info in self.prefixes.values()
            if not info.is_infrastructure
        ]

    def _announcement_of(self, addr: Address) -> Optional[AnnouncementSpec]:
        """The announcement governing routes toward *addr*: its prefix's
        override, or the default unicast spec of the origin AS, interned
        so every address that AS originates shares one spec object."""
        prefix = self.prefix_table.lookup_prefix(addr)
        if prefix is None:
            return None
        spec = self._announcements.get(prefix)
        if spec is not None:
            return spec
        asn = self.prefixes[prefix].origin_asn
        spec = self._unicast_specs.get(asn)
        if spec is None:
            spec = self._unicast_specs[asn] = AnnouncementSpec.single(asn)
        return spec

    # ------------------------------------------------------------------
    # Destination resolution
    # ------------------------------------------------------------------

    def resolve(self, dst: Address) -> Optional[DestTarget]:
        """Resolve a destination address to its delivery target(s).

        Memoized: every revtr measurement fires dozens of probes at the
        same destination (RR rounds, spoofed-VP batches).  The
        :class:`DestTarget` carries its announcement and the FIB row the
        walks toward it fill.  The memo is flushed on topology mutation,
        by :meth:`announce` / :meth:`withdraw` and by an
        :meth:`invalidate_routing` whose compiled AS view moved.
        """
        hit = self._resolve_cache.get(dst, _MISS)
        if hit is not _MISS:
            self._resolve_hits += 1
            return hit  # type: ignore[return-value]
        self._resolve_misses += 1
        target = self._resolve_uncached(dst)
        self._resolve_cache[dst] = target
        return target

    def _anchor_map(self, asn: int, router: int) -> Dict[int, int]:
        """``{asn: router}``, one shared read-only dict per pair."""
        key = (asn, router)
        anchors = self._anchor_maps.get(key)
        if anchors is None:
            anchors = self._anchor_maps[key] = {asn: router}
        return anchors

    def _resolve_uncached(self, dst: Address) -> Optional[DestTarget]:
        host = self.hosts.get(dst)
        if host is not None:
            prefix = self.prefix_table.lookup_prefix(dst)
            anchors = self._anycast_anchors.get(prefix)
            if anchors is None:
                anchors = self._anchor_map(host.asn, host.edge_router_id)
            return DestTarget(
                dst=dst,
                anchors=anchors,
                spec=self._announcement_of(dst),
                host=host,
            )
        owner = self.iface_owner.get(dst)
        if owner is not None:
            anchor = self.iface_anchor[dst]
            anchor_asn = self.routers[anchor].asn
            iface = self.routers[owner].interfaces.get(dst)
            endpoints = None
            if iface is not None and iface.neighbor_router_id is not None:
                endpoints = (owner, iface.neighbor_router_id)
            return DestTarget(
                dst=dst,
                anchors=self._anchor_map(anchor_asn, anchor),
                spec=self._announcement_of(dst),
                owner_router=owner,
                link_endpoints=endpoints,
            )
        return None

    # ------------------------------------------------------------------
    # Intra-AS shortest-path machinery
    # ------------------------------------------------------------------

    def intra_next_hops(
        self, asn: int, target: int, router: int
    ) -> List[int]:
        """Equal-cost next hops of *router* toward *target* within *asn*."""
        table = self._intra_table(asn, target)
        return table.get(router, [])

    def intra_distance(self, asn: int, target: int, router: int) -> int:
        """IGP hop distance, or a large value if unreachable."""
        key = (asn, target)
        if key not in self._intra_dist:
            self._intra_table(asn, target)
        return self._intra_dist[key].get(router, 1 << 30)

    def _intra_table(self, asn: int, target: int) -> Dict[int, List[int]]:
        key = (asn, target)
        cached = self._intra_next.get(key)
        if cached is not None:
            return cached
        dist: Dict[int, int] = {target: 0}
        frontier = [target]
        while frontier:
            next_frontier: List[int] = []
            for node in frontier:
                for neighbor in self.intra_adj.get(node, []):
                    if neighbor not in dist:
                        dist[neighbor] = dist[node] + 1
                        next_frontier.append(neighbor)
            frontier = next_frontier
        table: Dict[int, List[int]] = {}
        for node, d in dist.items():
            if node == target:
                continue
            table[node] = sorted(
                n
                for n in self.intra_adj.get(node, [])
                if dist.get(n, 1 << 30) == d - 1
            )
        self._intra_next[key] = table
        self._intra_dist[key] = dist
        return table

    # ------------------------------------------------------------------
    # AS-level helpers
    # ------------------------------------------------------------------

    def alt_next_as(
        self, asn: int, spec: AnnouncementSpec
    ) -> Optional[int]:
        """A loop-safe alternate next-hop AS, for DBR-violating borders."""
        key = (asn, spec)
        hit = self._alt_next_as.get(key, _MISS)
        if hit is _MISS:
            hit = self._alt_next_as[key] = self._alt_next_as_uncached(
                asn, spec
            )
        return hit  # type: ignore[return-value]

    def _alt_next_as_uncached(
        self, asn: int, spec: AnnouncementSpec
    ) -> Optional[int]:
        route_of = self.policy.route_of
        best = route_of(asn, spec)
        result: Optional[int] = None
        if best is not None and best.next_as is not None:
            candidates = []
            for neighbor in self.graph.nodes[asn].neighbors:
                if neighbor == best.next_as:
                    continue
                route = route_of(neighbor, spec)
                if route is None or asn in route.path:
                    continue
                candidates.append(neighbor)
            if candidates:
                candidates.sort(
                    key=lambda v: zlib.crc32(f"{asn}>{v}".encode())
                )
                result = candidates[0]
        return result

    # ------------------------------------------------------------------
    # The packet walker
    # ------------------------------------------------------------------

    def send_probe(self, probe: Probe) -> ProbeOutcome:
        """Inject *probe* and simulate it to completion.

        Outcome statistics are tallied unconditionally — like
        :class:`~repro.probing.budget.ProbeCounter` and
        :class:`~repro.core.cache.CacheStats` they are first-class sim
        state (:attr:`probe_outcome_counts`).
        """
        return self._tally_outcome(self._send_probe(probe))

    def send_probe_batch(
        self, probes: Sequence[Probe]
    ) -> List[ProbeOutcome]:
        """Walk a batch of probes in order.

        Outcomes are bit-identical to sequential :meth:`send_probe`
        calls: each probe's destination resolution is the simulator's
        own memo, so a batch shares nothing it does not.
        """
        return [self._tally_outcome(self._send_probe(p)) for p in probes]

    def send_ttl_sweep(
        self, probe: Probe, max_ttl: int, max_stars: int
    ) -> Tuple[List[TracerouteReply], Iterator[Optional[TracerouteReply]]]:
        """*probe* sent at TTL 1, 2, … *max_ttl*, as ``(replies, steps)``.

        Forwarding never reads the TTL, so the path is walked once,
        fault-free, and TTL k's reply is read off its k-th router.  With
        no fault injector nothing inside the path reads the clock or a
        loss draw, so ``replies`` holds those TTLs' replies up to the
        traceroute's stop point (the first ``reached`` one or the
        *max_stars*-th star in a row), already tallied.  ``steps`` sends
        each later TTL when asked: under an injector every TTL, running
        the injection-time faults, one loss draw per link crossed and the
        expiring router's policing in single-probe order; past the path's
        end, a single probe (with no injector, an unanswered one is
        walked once and tallied per TTL).  A step yields the reply
        (``None``: lost).
        Reply k, and the state it leaves, are those of a single probe
        sent at TTL k.  *probe* must carry no options: a walk stamps them.
        """
        if probe.has_options:
            raise ValueError("a TTL sweep takes an option-less probe")
        delivered, path = self._forward_walk(probe)
        at_owner = delivered and self.routers[path[-1]].owns(probe.dst)
        replies: List[TracerouteReply] = []
        if self.faults is None:
            stars = 0
            for ttl in range(1, min(len(path), max_ttl) + 1):
                reply = self._expiry(path, ttl, probe.dst, at_owner, None)
                replies.append(reply)
                stars = 0 if reply.hop_addr is not None else stars + 1
                if reply.reached or stars >= max_stars:
                    break
            sent = len(replies)  # TTL k crosses k routers
            self._obs_outcomes["ttl-expired"] += sent
            self._obs_hops += sent * (sent + 1) // 2
        first = len(replies) + 1
        return replies, self._ttl_steps(probe, path, at_owner, first, max_ttl)

    def _ttl_steps(
        self,
        probe: Probe,
        path: List[int],
        at_owner: bool,
        first: int,
        max_ttl: int,
    ) -> Iterator[Optional[TracerouteReply]]:
        faults = self.faults
        lossy = faults is not None and faults.has_link_loss
        expiring = min(len(path), max_ttl)
        for ttl in range(first, expiring + 1):
            reason = None if faults is None else faults.pre_send(probe)
            lost: List[int] = []
            if reason is None and lossy:
                for i in range(ttl - 1):
                    if faults.link_drops(path[i], path[i + 1]):
                        reason = faults.consume_reason()
                        lost = path[: i + 1]
                        break
            if reason is not None:
                self._tally_outcome(
                    ProbeOutcome(forward_router_path=lost, drop_reason=reason)
                )
                yield None
                continue
            self._obs_outcomes["ttl-expired"] += 1
            self._obs_hops += ttl
            yield self._expiry(path, ttl, probe.dst, at_owner, faults)
        silent = None
        for ttl in range(expiring + 1, max_ttl + 1):
            # TTL outlived the path, so only the destination can answer;
            # faults only shorten a walk: the sweep's TTL-less probe is
            # the same packet.  With no injector an unanswered probe
            # changed no state its repeat reads, so it is walked once
            # and tallied again per TTL.
            if silent is not None:
                self._tally_outcome(silent)
                yield None
                continue
            outcome = self.send_probe(probe)
            echo = outcome.echo
            if echo is None:
                if faults is None:
                    silent = outcome
                yield None
            else:
                yield TracerouteReply(probe.dst, echo.rtt, True)

    def _expiry(
        self, path: List[int], ttl: int, dst: Address, at_owner: bool, faults
    ) -> TracerouteReply:
        """TTL *ttl*'s time-exceeded reply on forward *path*: its
        *ttl*-th router's, entered through link *ttl*−1 → *ttl* (the
        first router through none).  The last router answers as the
        destination when it owns *dst* (*at_owner*).  The one place a
        TTL expires."""
        rtt = 2 * ttl * (self.config.link_latency_ms / 1000.0)
        if at_owner and ttl == len(path):
            return TracerouteReply(dst, rtt, True)
        hop = path[ttl - 1]
        reply_addr = self.routers[hop].traceroute_reply_address(
            self.adjacency[path[ttl - 2]][hop][1] if ttl > 1 else None
        )
        if (
            reply_addr is not None
            and faults is not None
            and faults.has_router_faults
            and faults.te_suppressed(hop)
        ):
            # Rate-limited/filtered routers stop answering
            # TTL-expired too: the hop reads as "*".
            reply_addr = None
        return TracerouteReply(reply_addr, rtt, False)

    def _forward_walk(self, probe: Probe) -> Tuple[bool, List[int]]:
        """(delivered, router path) of *probe*'s forward walk alone: no
        options, no fault hooks, no reply, nothing tallied.
        The path is empty when *probe* cannot be injected or routed."""
        origin_host = self.hosts.get(probe.injected_at)
        if origin_host is None or (
            probe.is_spoofed
            and not self.graph.nodes[origin_host.asn].allows_spoofing
        ):
            return False, []
        target = self.resolve(probe.dst)
        if target is None or target.spec is None:
            return False, []
        delivered, _, _, path = self._walk(
            start_router=origin_host.edge_router_id,
            target=target,
            probe=probe,
            rr=None,
            ts=None,
            faults=None,
        )
        return delivered, path

    def _tally_outcome(self, outcome: ProbeOutcome) -> ProbeOutcome:
        self._obs_hops += len(outcome.forward_router_path) + len(
            outcome.reply_router_path
        )
        if outcome.delivered:
            self._obs_outcomes["delivered"] += 1
        else:
            self._obs_outcomes["dropped"] += 1
            reason = outcome.drop_reason
            if reason is not None:
                self._obs_drops[reason] = (
                    self._obs_drops.get(reason, 0) + 1
                )
        return outcome

    def _send_probe(self, probe: Probe) -> ProbeOutcome:
        outcome = ProbeOutcome()
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
        delivered, responder_addr, hop_count, path = self._walk(
            start_router=origin_host.edge_router_id,
            target=target,
            probe=probe,
            rr=rr,
            ts=ts,
            faults=faults,
        )
        outcome.forward_router_path = path
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
        delivered, _, reply_hops, reply_path = self._walk(
            start_router=start,
            target=reply_target,
            probe=reply_probe,
            rr=rr,
            ts=ts,
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

    def _next_ipid(self, responder: Address) -> int:
        """IP-ID of a reply: shared per-router counter when the router
        uses a single counter across interfaces (what MIDAR exploits),
        independent per-address counters otherwise."""
        router = self.router_of(responder)
        if router is not None and router.ipid_shared:
            return router.next_ipid()
        counter = self._ipid_counters.get(responder, 0)
        counter = (counter + 1) & 0xFFFF
        self._ipid_counters[responder] = counter
        return counter

    # -- walk internals -------------------------------------------------

    def _walk(
        self,
        start_router: int,
        target: DestTarget,
        probe: Probe,
        rr: Optional[RecordRouteOption],
        ts: Optional[TimestampOption],
        faults,
    ) -> Tuple[bool, Optional[Address], int, List[int]]:
        """Walk from *start_router* toward *target*, filling its row.

        *faults* is the injector whose hooks the walk consults, or
        ``None`` for a fault-free walk (no hook runs, whatever
        ``self.faults`` holds).

        Returns (delivered, responder_addr, hops, router_path).
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
        # dispatch inlined (plus delivery via the terminal entry
        # kinds): at tens of thousands of hops per measurement stream,
        # a per-hop function call and adjacency lookups would be a
        # measurable slice of campaign runtime.
        while hops < MAX_HOPS:
            router = routers[current]
            hops += 1
            path.append(current)

            entry = fib.get(current)
            if entry is None:
                entry = fib[current] = self._compute_fib_entry(router, target)
                self._fib_entries += 1
                self._fib_misses += 1
            else:
                self._fib_hits += 1
            kind = entry.kind

            # Delivery: this router owns the destination interface, or
            # is the edge router handing the packet to the host's LAN.
            if kind == FIB_DST:
                return True, dst, hops, path
            if kind == FIB_LAN:
                if slots is not None:
                    stamp = router.rr_stamp_address(ingress_addr, None)
                    if stamp is not None:
                        slots.append(stamp)
                if ts is not None:
                    self._ts_stamp(router, ts)
                return True, dst, hops, path

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
                return False, None, hops, path

            if lossy and faults.link_drops(current, next_router):
                return False, None, hops, path
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

        return False, None, hops, path

    def _compute_fib_entry(
        self, router: Router, target: DestTarget
    ) -> FibEntry:
        """Compute the deterministic forwarding action at *router*.

        Everything about the hop that does not depend on the packet.
        Plain routers' destination-based ECMP
        tie-break (a hash of ``(router, destination)``) is itself a
        pure function of the slot's key, so it is folded in as a forced
        ``FIB_DELIVER``; load balancers and DBR violators
        keep their full candidate list.  Delivery detection is folded
        in as the terminal kinds ``FIB_DST``/``FIB_LAN``, and DELIVER
        entries carry their precomputed link triple, so the walker's
        per-hop work reduces to one dict lookup plus dispatch.
        """
        current = router.router_id
        asn = router.asn

        # Terminal kinds: delivery happens at this router.
        if router.owns(target.dst):
            return FibEntry(FIB_DST)
        if (
            target.host is not None
            and asn in target.anchors
            and target.anchors[asn] == current
        ):
            return FibEntry(FIB_LAN)

        if target.owner_router is not None:
            owner = target.owner_router
            # We are the far endpoint of the destination's /30: the
            # subnet is directly connected, deliver across the link.
            if (
                target.link_endpoints is not None
                and current in target.link_endpoints
                and owner in self.adjacency.get(current, {})
            ):
                return self._deliver_entry(current, owner)
            # Interdomain misnumbered iface: any router adjacent to the
            # owner in a different AS has the /30 as a connected route.
            if (
                owner in self.adjacency.get(current, {})
                and self.routers[owner].asn != asn
            ):
                return self._deliver_entry(current, owner)

        if asn in target.anchors:
            anchor = target.anchors[asn]
            # Link interfaces are routed to the *nearest* endpoint of
            # their /30 inside this AS (IGP connected-subnet routing).
            intra_target = anchor
            if target.link_endpoints is not None:
                local = [
                    e
                    for e in target.link_endpoints
                    if self.routers[e].asn == asn
                ]
                if local:
                    intra_target = min(
                        local,
                        key=lambda e: (
                            self.intra_distance(asn, e, current),
                            e,
                        ),
                    )
            if intra_target == current:
                owner = target.owner_router
                if owner is not None and owner in self.adjacency.get(
                    current, {}
                ):
                    return self._deliver_entry(current, owner)
                return FibEntry(FIB_ERROR, reason="anchor cannot deliver")
            candidates = self.intra_next_hops(asn, intra_target, current)
            if not candidates:
                return FibEntry(
                    FIB_ERROR, reason="intra-AS target unreachable"
                )
            return self._ecmp_entry(router, target, candidates)

        # Interdomain step.
        spec = target.spec
        next_as = self.policy.next_hop_as(asn, spec)
        if next_as is None:
            return FibEntry(FIB_ERROR, reason="no BGP route")
        entry = self._border_entry(router, target, next_as)
        if router.dbr_as_violator:
            alt_as = self.alt_next_as(asn, spec)
            if alt_as is not None:
                # ``.alt`` depends on the spec: set it on a private copy,
                # never on the entry other rows share.
                entry = copy(entry)
                entry.alt = self._border_entry(router, target, alt_as)
        return entry

    def _border_entry(
        self, router: Router, target: DestTarget, next_as: int
    ) -> FibEntry:
        """The deterministic egress action toward *next_as*: the pick is
        made once per ``(router, next AS)``, the entry per destination."""
        key = (router.router_id, next_as)
        egress = self._egress.get(key)
        if egress is None:
            egress = self._egress[key] = self._egress_toward(router, next_as)
        if isinstance(egress, str):
            return FibEntry(FIB_ERROR, reason=egress)
        return self._ecmp_entry(router, target, egress)

    def _egress_toward(
        self, router: Router, next_as: int
    ) -> Union[str, List[int]]:
        """Equal-cost next hops from *router* toward its AS's egress to
        *next_as*, or why there is none."""
        current = router.router_id
        asn = router.asn
        pairs = self.borders.get(asn, {}).get(next_as)
        if not pairs:
            return "no border link to next AS"

        # If we are a border router on one of the candidate links,
        # egress directly (hot potato at zero cost).
        own_pairs = [p for p in pairs if p[0] == current]
        if own_pairs:
            return sorted(p[1] for p in own_pairs)

        # Pick an egress border router.
        if self.graph.nodes[asn].cold_potato:
            local_border = min(pairs)[0]
        else:
            local_border = min(
                (self.intra_distance(asn, p[0], current), p[0])
                for p in pairs
            )[1]
        return (
            self.intra_next_hops(asn, local_border, current)
            or "border unreachable intra-AS"
        )

    def _deliver_entry(self, current: int, next_router: int) -> FibEntry:
        """The forced-next-hop entry of link *current* -> *next_router*,
        its link triple precomputed: one object, shared by every row
        slot that crosses the link."""
        key = (current, next_router)
        entry = self._link_entries.get(key)
        if entry is None:
            entry = FibEntry(FIB_DELIVER, (next_router,))
            egress_addr, next_ingress = self.adjacency[current][next_router]
            entry.via = (next_router, egress_addr, next_ingress)
            self._link_entries[key] = entry
        return entry

    def _ecmp_entry(
        self,
        router: Router,
        target: DestTarget,
        candidates: List[int],
    ) -> FibEntry:
        """Wrap equal-cost *candidates*, folding deterministic picks.

        Single candidates and plain routers' destination-hash
        tie-breaks resolve to the same next hop for every packet of a
        ``(router, destination)`` pair — precompute them so the cached
        path skips :func:`choose_candidate` entirely.  Load balancers
        and DBR violators stay ECMP: their pick depends on the packet.
        """
        current = router.router_id
        if len(candidates) == 1:
            return self._deliver_entry(current, candidates[0])
        if not router.dbr_violator and not router.is_load_balancer:
            # Plain routers break equal-cost ties per destination:
            # strictly destination-based, but direction-asymmetric —
            # one source of the router-level asymmetry the paper
            # measures even on AS-symmetric paths (§6.2).
            index = zlib.crc32(
                f"{router.router_id}|{target.dst}".encode()
            ) % len(candidates)
            return self._deliver_entry(current, candidates[index])
        key = (current, tuple(candidates))
        entry = self._link_entries.get(key)
        if entry is None:
            entry = FibEntry(FIB_ECMP, key[1])
            entry.adj = self.adjacency[current]
            self._link_entries[key] = entry
        return entry

    @staticmethod
    def _ts_stamp(router: Router, ts: TimestampOption) -> None:
        """In-transit timestamp processing at *router* (the walk stamps
        record route itself)."""
        if router.supports_timestamp:
            ts.stamp_if_match(router.addresses(), now=1)

    def _destination_responds(self, addr: Address, probe: Probe) -> bool:
        host = self.hosts.get(addr)
        if host is not None:
            if probe.has_options:
                return host.responds_to_options
            return host.responds_to_ping
        router = self.router_of(addr)
        if router is not None:
            return not probe.has_options or router.responds_to_options
        return False

    def _destination_stamp(
        self,
        addr: Address,
        probe: Probe,
        rr: Optional[RecordRouteOption],
        ts: Optional[TimestampOption],
    ) -> None:
        """The destination's own stamp before echoing the options back."""
        if rr is not None and not rr.is_full():
            host = self.hosts.get(addr)
            if host is not None:
                if host.stamps_rr:
                    rr.stamp(addr)
            else:
                router = self.router_of(addr)
                if router is not None:
                    stamp = self._router_destination_stamp(router, addr)
                    if stamp is not None:
                        rr.stamp(stamp)
        if ts is not None:
            router = self.router_of(addr)
            if router is not None:
                if router.supports_timestamp:
                    ts.stamp_if_match(router.addresses(), now=1)
            else:
                ts.stamp_if_match([addr], now=1)

    @staticmethod
    def _router_destination_stamp(
        router: Router, probed: Address
    ) -> Optional[Address]:
        """What a router stamps when it is the probe's destination."""
        from repro.net.router import RRStampPolicy

        if router.rr_policy is RRStampPolicy.NO_STAMP:
            return None
        if router.rr_policy is RRStampPolicy.PRIVATE:
            return router.private_addr
        if router.rr_policy is RRStampPolicy.LOOPBACK:
            return router.loopback or probed
        return probed

    def _reply_start_router(self, responder: Address) -> int:
        host = self.hosts.get(responder)
        if host is not None:
            return host.edge_router_id
        return self.iface_owner[responder]

    # ------------------------------------------------------------------
    # Ground-truth conveniences (for tests and oracle baselines only)
    # ------------------------------------------------------------------

    def ground_truth_router_path(
        self, src: Address, dst: Address
    ) -> List[int]:
        """Router-id path a plain packet takes from *src* to *dst*.

        A fault-free forward walk and nothing else: no probe is
        counted, no fault draw consumed, no reply sent.
        """
        return self._forward_walk(Probe(src=src, dst=dst))[1]

    def topology_fingerprint(self) -> str:
        """Stable digest identifying this generated topology.

        Hashes the full :class:`TopologyConfig` (seed included) plus
        the realized entity counts.  Two ``Internet`` instances built
        from equal configs produce equal fingerprints; any config tweak
        — scale, seed, latency, responsiveness rates — changes it.
        Atlas snapshots embed the fingerprint so a snapshot can never
        be replayed against a different simulated Internet.
        """
        doc = dict(vars(self.config))
        doc["_routers"] = len(self.routers)
        doc["_hosts"] = len(self.hosts)
        doc["_ases"] = len(self.graph)
        blob = json.dumps(doc, sort_keys=True, default=str)
        return hashlib.sha256(blob.encode()).hexdigest()[:16]

    def invalidate_routing(self) -> None:
        """Let routing reconverge after the AS graph was edited in place
        (edges, ``neighbor_pref``, ``cold_potato``).

        Always bumps the routing generation, which the segment cache,
        the atlases and snapshots stamp what they store with.  When
        :meth:`RoutingPolicy.invalidate` finds the compiled AS view
        moved, it drops what read that view: the alternate next-ASes,
        the egress picks and the resolved targets with the FIB rows they
        carry.  An announcement change drops its own memos
        (:meth:`announce`); the link entries and the prefix table's
        longest-prefix matches read neither.
        """
        self.routing_generation += 1
        if self.policy.invalidate():
            self._alt_next_as.clear()
            self._egress.clear()
            self._flush_resolution_caches()

    def forwarding_cache_stats(self) -> Dict[str, object]:
        """Hit/miss/size accounting for every forwarding memo.

        JSON-able; the one place these tallies are published: the e2e
        ledger's ``sim.*_hit_frac`` and CI's FIB-sharing check read it.
        """
        table = self.prefix_table
        return {
            "routing_generation": self.routing_generation,
            "caches": {
                "fib": {
                    "hits": self._fib_hits,
                    "misses": self._fib_misses,
                    "entries": self._fib_entries,
                },
                "resolve": {
                    "hits": self._resolve_hits,
                    "misses": self._resolve_misses,
                    "entries": len(self._resolve_cache),
                },
                "lpm": {
                    "hits": table.cache_hits,
                    "misses": table.cache_misses,
                    "entries": table.cached_lookups,
                },
            },
        }
