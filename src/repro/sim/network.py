"""The simulated Internet: topology container and packet walker.

:class:`Internet` holds everything the generator built — AS graph,
routers, links, prefixes, hosts — plus the forwarding machinery. Its
central method, :meth:`Internet.send_probe`, walks a probe hop-by-hop
to its destination and routes the reply back to the probe's (possibly
spoofed) source, applying record-route stamping, TTL expiry, timestamp
prespec matching, and the load-balancing / destination-based-routing
quirks along the way.
"""

from __future__ import annotations

import hashlib
import json
import zlib
from copy import copy
from dataclasses import dataclass, field, replace
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple, Union

from repro.net.addr import Address, Prefix, PrefixTable
from repro.net.host import Host
from repro.net.options import RecordRouteOption, TimestampOption
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
    responder: Optional[Address] = None
    echo: Optional[EchoReply] = None
    te_reply: Optional[TracerouteReply] = None
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
        #: announcement overrides (traffic engineering); default is
        #: a unicast announcement from the prefix's origin AS
        self.announcements: Dict[Prefix, AnnouncementSpec] = {}
        #: anycast delivery points: prefix -> origin asn -> edge router
        self.anycast_anchors: Dict[Prefix, Dict[int, int]] = {}

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
        #: routing generation; bumped by :meth:`invalidate_routing` so
        #: FIB entries computed under an old announcement set are
        #: treated as misses even if a reference to a per-spec shard
        #: outlives the invalidation
        self.routing_generation = 0
        #: spec -> destination -> {router_id -> FibEntry}; sharded per
        #: announcement and destination so the walker looks up the spec
        #: (whose hash is computed once, at construction) and hashes
        #: the destination string once per packet, leaving a bare-int
        #: dict lookup per hop.  Slots are per address; the entries in
        #: them are shared (see ``_link_entries``)
        self._fib: Dict[
            AnnouncementSpec, Dict[Address, Dict[int, FibEntry]]
        ] = {}
        #: (router, next AS) -> the equal-cost next hops of the egress
        #: pick, or the reason there is none; reads no address
        self._egress: Dict[Tuple[int, int], Union[str, List[int]]] = {}
        #: (router, next router) -> the one FIB_DELIVER entry that every
        #: row slot forwarding over that link refers to; (router,
        #: candidate tuple) -> the one FIB_ECMP entry, likewise
        self._link_entries: Dict[Tuple[int, object], FibEntry] = {}
        #: memoized Internet.resolve() / announcement_for() results;
        #: flushed on topology mutation and invalidate_routing()
        self._resolve_cache: Dict[Address, Optional[DestTarget]] = {}
        self._announce_cache: Dict[Address, Optional[AnnouncementSpec]] = {}
        self._fib_hits = 0
        self._fib_misses = 0
        #: slots (not distinct entry objects) currently held across all
        #: FIB rows: bumped where :meth:`_walk` fills a new key, zeroed
        #: wherever ``_fib`` is cleared, so reading it never walks it
        self._fib_entries = 0
        self._resolve_hits = 0
        self._resolve_misses = 0
        self._announce_hits = 0
        self._announce_misses = 0

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
        """Drop destination-resolution memos after topology mutation."""
        if self._resolve_cache:
            self._resolve_cache.clear()
        if self._announce_cache:
            self._announce_cache.clear()

    def _drop_forwarding_memos(self) -> None:
        """Start a routing generation: no FIB row, egress pick, shared
        entry or resolution computed before it is read after it."""
        self.routing_generation += 1
        self._fib.clear()
        self._fib_entries = 0
        self._egress.clear()
        self._link_entries.clear()
        self._flush_resolution_caches()

    def _flush_topology_memos(self) -> None:
        """Drop what was computed from the link set before it changed:
        the IGP tables and, once a walk has filled a row (the memos fill
        nowhere else), everything forwarding remembers.  Free until then:
        the generator's calls pay two truth tests."""
        if self._intra_next:
            self._intra_next.clear()
            self._intra_dist.clear()
        if self._fib:
            self._drop_forwarding_memos()

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

    def announcement_for(self, addr: Address) -> Optional[AnnouncementSpec]:
        """Return the announcement governing routes toward *addr*.

        Memoized per address (the result is a pure function of the
        prefix table and announcement overrides); the memo also interns
        the default per-prefix :class:`AnnouncementSpec` so every probe
        toward a prefix shares one spec object — and therefore one FIB
        shard — instead of re-hashing a fresh spec per packet.
        """
        hit = self._announce_cache.get(addr, _MISS)
        if hit is not _MISS:
            self._announce_hits += 1
            return hit  # type: ignore[return-value]
        self._announce_misses += 1
        spec = self._announcement_for_uncached(addr)
        self._announce_cache[addr] = spec
        return spec

    def _announcement_for_uncached(
        self, addr: Address
    ) -> Optional[AnnouncementSpec]:
        prefix = self.prefix_table.lookup_prefix(addr)
        if prefix is None:
            return None
        spec = self.announcements.get(prefix)
        if spec is not None:
            return spec
        info = self.prefixes[prefix]
        return AnnouncementSpec.single(info.origin_asn)

    # ------------------------------------------------------------------
    # Destination resolution
    # ------------------------------------------------------------------

    def resolve(self, dst: Address) -> Optional[DestTarget]:
        """Resolve a destination address to its delivery target(s).

        Memoized: every revtr measurement fires dozens of probes at the
        same destination (RR rounds, spoofed-VP batches), and the
        resolved :class:`DestTarget` is a pure function of topology and
        anycast anchors.  The memo is flushed on topology mutation and
        by :meth:`invalidate_routing`.
        """
        hit = self._resolve_cache.get(dst, _MISS)
        if hit is not _MISS:
            self._resolve_hits += 1
            return hit  # type: ignore[return-value]
        self._resolve_misses += 1
        target = self._resolve_uncached(dst)
        self._resolve_cache[dst] = target
        return target

    def _resolve_uncached(self, dst: Address) -> Optional[DestTarget]:
        host = self.hosts.get(dst)
        if host is not None:
            prefix = self.prefix_table.lookup_prefix(dst)
            anchors = {host.asn: host.edge_router_id}
            if prefix is not None and prefix in self.anycast_anchors:
                anchors = dict(self.anycast_anchors[prefix])
            return DestTarget(
                dst=dst, anchors=anchors, host=host, owner_router=None
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
                anchors={anchor_asn: anchor},
                host=None,
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
        if hit is not _MISS:
            return hit  # type: ignore[return-value]
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
        self._alt_next_as[key] = result
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
        """Walk a batch of probes, resolving each destination once.

        The batch is the natural unit of revtr probing — a spoofed-VP
        round fires many probes at one destination — so the destination
        resolution and announcement lookup are computed once per
        distinct destination and shared across the whole batch.
        Probes are walked in order, so outcomes are bit-identical to
        sequential :meth:`send_probe` calls.
        """
        shared: Dict[
            Address,
            Tuple[Optional[DestTarget], Optional[AnnouncementSpec]],
        ] = {}
        outcomes: List[ProbeOutcome] = []
        for probe in probes:
            context = shared.get(probe.dst)
            if context is None:
                context = (
                    self.resolve(probe.dst),
                    self.announcement_for(probe.dst),
                )
                shared[probe.dst] = context
            outcomes.append(
                self._tally_outcome(self._send_probe(probe, context))
            )
        return outcomes

    def send_ttl_sweep(
        self, probe: Probe, max_ttl: int
    ) -> Iterator[ProbeOutcome]:
        """Yield the outcomes of *probe* sent at TTL 1, 2, … *max_ttl*.

        The k-th item is what ``send_probe(replace(probe, ttl=k))``
        would return at the moment it is asked for, and the simulator
        is left in the state that call would leave it in; the caller
        may stop early.  Forwarding never reads the TTL, so the forward
        path is walked once, fault-free, and TTL k's time-exceeded
        reply is read off its k-th router.  Whatever reads the clock
        or a draw counter still runs once per TTL, in the order a
        single probe runs it: the injection-time faults, one loss draw
        per link crossed, the expiring router's ICMP policing.  TTLs
        past the end of the path — the destination's echo, or silence
        — and probes that cannot be injected or routed are single
        probes.  *probe* must carry no options: a walk stamps them.
        """
        if probe.has_options:
            raise ValueError("a TTL sweep takes an option-less probe")
        delivered, path = self._forward_walk(probe)
        routers = self.routers
        adjacency = self.adjacency
        at_owner = delivered and routers[path[-1]].owns(probe.dst)
        faults = self.faults
        lossy = faults is not None and faults.has_link_loss
        expiring = min(len(path), max_ttl)
        for ttl in range(1, expiring + 1):
            outcome = ProbeOutcome()
            reason = None if faults is None else faults.pre_send(probe)
            if reason is None and lossy:
                for i in range(ttl - 1):
                    if faults.link_drops(path[i], path[i + 1], probe):
                        reason = faults.consume_reason()
                        outcome.forward_router_path = path[: i + 1]
                        break
            if reason is not None:
                outcome.drop_reason = reason
            else:
                hop = path[ttl - 1]
                outcome.forward_router_path = path[:ttl]
                outcome.te_reply = self._time_exceeded(
                    routers[hop],
                    adjacency[path[ttl - 2]][hop][1] if ttl > 1 else None,
                    ttl,
                    probe.dst,
                    at_owner and ttl == len(path),
                    faults,
                )
            yield self._tally_outcome(outcome)
        for ttl in range(expiring + 1, max_ttl + 1):
            yield self.send_probe(replace(probe, ttl=ttl))

    def _forward_walk(self, probe: Probe) -> Tuple[bool, List[int]]:
        """(delivered, router path) of *probe*'s forward walk alone: no
        TTL, no options, no fault hooks, no reply, nothing tallied.
        The path is empty when *probe* cannot be injected or routed."""
        origin_host = self.hosts.get(probe.injected_at)
        if origin_host is None or (
            probe.is_spoofed
            and not self.graph.nodes[origin_host.asn].allows_spoofing
        ):
            return False, []
        target = self.resolve(probe.dst)
        spec = self.announcement_for(probe.dst)
        if target is None or spec is None:
            return False, []
        delivered, _, _, path, _ = self._walk(
            start_router=origin_host.edge_router_id,
            target=target,
            spec=spec,
            probe=probe,
            rr=None,
            ts=None,
            ttl=None,
            faults=None,
        )
        return delivered, path

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

    def _send_probe(
        self,
        probe: Probe,
        context: Optional[
            Tuple[Optional[DestTarget], Optional[AnnouncementSpec]]
        ] = None,
    ) -> ProbeOutcome:
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

        if context is not None:
            target, spec = context
        else:
            target = self.resolve(probe.dst)
            spec = self.announcement_for(probe.dst)
        if target is None:
            outcome.drop_reason = "unreachable-destination"
            return outcome
        if spec is None:
            outcome.drop_reason = "no-announcement"
            return outcome

        rr = probe.record_route
        ts = probe.timestamp
        delivered, responder_addr, hop_count, path, te = self._walk(
            start_router=origin_host.edge_router_id,
            target=target,
            spec=spec,
            probe=probe,
            rr=rr,
            ts=ts,
            ttl=probe.ttl,
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
        reply_spec = self.announcement_for(probe.src)
        if reply_target is None or reply_spec is None:
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
        delivered, _, reply_hops, reply_path, _ = self._walk(
            start_router=start,
            target=reply_target,
            spec=reply_spec,
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
        outcome.responder = responder_addr
        outcome.echo = EchoReply(
            src=responder_addr,
            dst=probe.src,
            responder=responder_addr,
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

    def _fib_for(
        self, spec: AnnouncementSpec, dst: Address
    ) -> Dict[int, FibEntry]:
        """The per-destination FIB row for *spec*.

        Fetched once per walk so the spec and the destination string
        are each looked up once per packet; the per-hop lookup then
        keys on the bare router id.
        """
        shard = self._fib.get(spec)
        if shard is None:
            shard = {}
            self._fib[spec] = shard
        row = shard.get(dst)
        if row is None:
            row = {}
            shard[dst] = row
        return row

    def _walk(
        self,
        start_router: int,
        target: DestTarget,
        spec: AnnouncementSpec,
        probe: Probe,
        rr: Optional[RecordRouteOption],
        ts: Optional[TimestampOption],
        ttl: Optional[int],
        faults,
    ) -> Tuple[bool, Optional[Address], int, List[int], Optional[TracerouteReply]]:
        """Walk from *start_router* toward *target*.

        *faults* is the injector whose hooks the walk consults, or
        ``None`` for a fault-free walk (no hook runs, whatever
        ``self.faults`` holds).

        Returns (delivered, responder_addr, hops, router_path, te_reply).
        """
        current = start_router
        ingress_addr: Optional[Address] = None
        hops = 0
        path: List[int] = []
        visited: set = set()
        dst = target.dst
        fib = self._fib_for(spec, dst)
        gen = self.routing_generation
        routers = self.routers
        crc32 = zlib.crc32
        lossy = faults is not None and faults.has_link_loss
        stamping = rr is not None or ts is not None

        # The loop body below is the whole forwarding decision, FIB
        # dispatch inlined (plus delivery/TTL handling via the terminal
        # entry kinds): at tens of thousands of hops per measurement
        # stream, a per-hop function call and adjacency lookups would
        # be a measurable slice of campaign runtime.
        while hops < MAX_HOPS:
            router = routers[current]
            first_visit = current not in visited
            visited.add(current)
            hops += 1
            path.append(current)

            entry = fib.get(current)
            if entry is None or entry.generation != gen:
                if entry is None:
                    self._fib_entries += 1
                entry = self._compute_fib_entry(router, target, spec)
                fib[current] = entry
                self._fib_misses += 1
            else:
                self._fib_hits += 1
            kind = entry.kind

            # TTL expiry check (the router that decrements to zero).
            if ttl is not None and hops == ttl:
                te = self._time_exceeded(
                    router, ingress_addr, ttl, dst, kind == FIB_DST, faults
                )
                return False, None, hops, path, te

            # Delivery: this router owns the destination interface, or
            # is the edge router handing the packet to the host's LAN.
            if kind == FIB_DST:
                return True, dst, hops, path, None
            if kind == FIB_LAN:
                if stamping:
                    self._transit_stamp(router, ingress_addr, None, rr, ts)
                return True, dst, hops, path, None

            if entry.alt is not None and first_visit:
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

            if lossy and faults.link_drops(current, next_router, probe):
                return False, None, hops, path, None
            if stamping:
                self._transit_stamp(
                    router, ingress_addr, egress_addr, rr, ts
                )
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
            return TracerouteReply(
                ttl=ttl, hop_addr=dst, rtt=rtt, reached=True
            )
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
        return TracerouteReply(
            ttl=ttl, hop_addr=reply_addr, rtt=rtt, reached=False
        )

    def _compute_fib_entry(
        self, router: Router, target: DestTarget, spec: AnnouncementSpec
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
        gen = self.routing_generation

        # Terminal kinds: delivery happens at this router.
        if router.owns(target.dst):
            return FibEntry(FIB_DST, generation=gen)
        if (
            target.host is not None
            and asn in target.anchors
            and target.anchors[asn] == current
        ):
            return FibEntry(FIB_LAN, generation=gen)

        if target.owner_router is not None:
            owner = target.owner_router
            # We are the far endpoint of the destination's /30: the
            # subnet is directly connected, deliver across the link.
            if (
                target.link_endpoints is not None
                and current in target.link_endpoints
                and owner in self.adjacency.get(current, {})
            ):
                return self._deliver_entry(current, owner, gen)
            # Interdomain misnumbered iface: any router adjacent to the
            # owner in a different AS has the /30 as a connected route.
            if (
                owner in self.adjacency.get(current, {})
                and self.routers[owner].asn != asn
            ):
                return self._deliver_entry(current, owner, gen)

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
                    return self._deliver_entry(current, owner, gen)
                return FibEntry(
                    FIB_ERROR, reason="anchor cannot deliver",
                    generation=gen,
                )
            candidates = self.intra_next_hops(asn, intra_target, current)
            if not candidates:
                return FibEntry(
                    FIB_ERROR, reason="intra-AS target unreachable",
                    generation=gen,
                )
            return self._ecmp_entry(router, target, candidates, gen)

        # Interdomain step.
        next_as = self.policy.next_hop_as(asn, spec)
        if next_as is None:
            return FibEntry(
                FIB_ERROR, reason="no BGP route", generation=gen
            )
        entry = self._border_entry(router, target, next_as, gen)
        if router.dbr_as_violator:
            alt_as = self.alt_next_as(asn, spec)
            if alt_as is not None:
                # ``.alt`` depends on the spec: set it on a private copy,
                # never on the entry other rows share.
                entry = copy(entry)
                entry.alt = self._border_entry(
                    router, target, alt_as, gen
                )
        return entry

    def _border_entry(
        self,
        router: Router,
        target: DestTarget,
        next_as: int,
        gen: int,
    ) -> FibEntry:
        """The deterministic egress action toward *next_as*: the pick is
        made once per ``(router, next AS)``, the entry per destination."""
        key = (router.router_id, next_as)
        egress = self._egress.get(key)
        if egress is None:
            egress = self._egress[key] = self._egress_toward(router, next_as)
        if isinstance(egress, str):
            return FibEntry(FIB_ERROR, reason=egress, generation=gen)
        return self._ecmp_entry(router, target, egress, gen)

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

    def _deliver_entry(
        self, current: int, next_router: int, gen: int
    ) -> FibEntry:
        """The forced-next-hop entry of link *current* -> *next_router*,
        its link triple precomputed: one object per routing generation,
        shared by every row slot that crosses the link."""
        key = (current, next_router)
        entry = self._link_entries.get(key)
        if entry is None or entry.generation != gen:
            entry = FibEntry(FIB_DELIVER, (next_router,), generation=gen)
            egress_addr, next_ingress = self.adjacency[current][next_router]
            entry.via = (next_router, egress_addr, next_ingress)
            self._link_entries[key] = entry
        return entry

    def _ecmp_entry(
        self,
        router: Router,
        target: DestTarget,
        candidates: List[int],
        gen: int,
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
            return self._deliver_entry(current, candidates[0], gen)
        if not router.dbr_violator and not router.is_load_balancer:
            index = zlib.crc32(
                f"{router.router_id}|{target.dst}".encode()
            ) % len(candidates)
            return self._deliver_entry(current, candidates[index], gen)
        key = (current, tuple(candidates))
        entry = self._link_entries.get(key)
        if entry is None or entry.generation != gen:
            entry = FibEntry(FIB_ECMP, key[1], generation=gen)
            entry.adj = self.adjacency[current]
            self._link_entries[key] = entry
        return entry

    def _transit_stamp(
        self,
        router: Router,
        ingress_addr: Optional[Address],
        egress_addr: Optional[Address],
        rr: Optional[RecordRouteOption],
        ts: Optional[TimestampOption],
    ) -> None:
        """Apply in-transit option processing at *router*."""
        if rr is not None and not rr.is_full():
            stamp = router.rr_stamp_address(ingress_addr, egress_addr)
            if stamp is not None:
                rr.stamp(stamp)
        if ts is not None and router.supports_timestamp:
            owned = router.addresses()
            ts.stamp_if_match(owned, now=1)

    def _destination_responds(self, addr: Address, probe: Probe) -> bool:
        host = self.hosts.get(addr)
        if host is not None:
            if probe.has_options:
                return host.responds_to_options
            return host.responds_to_ping
        router = self.router_of(addr)
        if router is not None:
            if probe.has_options:
                return router.responds_to_options
            return router.responds_to_ping
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
        self, src: Address, dst: Address, flow_id: int = 0
    ) -> List[int]:
        """Router-id path a plain packet takes from *src* to *dst*.

        A fault-free forward walk and nothing else: no probe is
        counted, no fault draw consumed, no reply sent.
        """
        return self._forward_walk(
            Probe(src=src, dst=dst, flow_id=flow_id)
        )[1]

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
        """Drop routing caches after announcement changes (TE).

        Bumps the routing generation — every cached
        :class:`~repro.sim.forwarding.FibEntry` stamped with an older
        generation becomes a miss, even if a reference to a FIB row
        outlives the call — and drops the rows, the egress picks
        (``cold_potato`` may have been edited), the shared entries and
        the destination-resolution memos (anycast anchors may have
        moved).
        """
        self.policy.invalidate()
        self._alt_next_as.clear()
        self._drop_forwarding_memos()
        self.prefix_table.flush_lookup_cache()

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
                "announcement": {
                    "hits": self._announce_hits,
                    "misses": self._announce_misses,
                    "entries": len(self._announce_cache),
                },
                "lpm": {
                    "hits": table.cache_hits,
                    "misses": table.cache_misses,
                    "entries": table.cached_lookups,
                },
            },
        }
