"""Forwarding memos: determinism, invalidation, sharing, and accounting.

The memos' contract is that they are *invisible* except in speed and
size: memoised forwarding must be bit-identical to recomputing every
decision (``tests/helpers/reference_walk.py``), including the
stochastic load-balancer and DBR-violator hops, whose per-packet
choices stay outside the cache; a memo must be dropped by the call
that moves an input it read — ``Internet.announce`` / ``withdraw`` (an
announcement override or an anycast anchor), ``invalidate_routing()``
after a ``cold_potato`` flag or the AS graph was edited, or
``connect()`` adding a link — and kept by an ``invalidate_routing()``
that finds nothing moved; and sharing one ``FibEntry`` between the row
slots that resolve to the same link must move no lookup.
"""

from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from repro.net.addr import Prefix, PrefixTable, addr_to_int
from repro.net.host import Host
from repro.net.options import RecordRouteOption
from repro.net.packet import Probe, ProbeKind
from repro.probing.traceroute import MAX_STARS
from repro.sim.forwarding import FIB_DELIVER
from repro.sim.network import Internet
from repro.topology import TopologyConfig
from repro.topology.asgraph import ASTier, Relationship
from repro.topology.generator import build_internet
from repro.topology.policy import AnnouncementSpec, Origin, RoutingPolicy
from tests.helpers.reference_obs import fib_entry_count
from tests.helpers.reference_walk import (
    private_entries,
    uncached_forwarding,
)


def fresh_internet(seed: int = 5):
    return build_internet(TopologyConfig.small(seed=seed))


def rr_ping(src, dst):
    return Probe(
        src=src,
        dst=dst,
        kind=ProbeKind.RECORD_ROUTE,
        injected_at=src,
        record_route=RecordRouteOption(),
    )


def probe_stream(internet, n: int = 40):
    """A deterministic mixed stream of plain and RR probes."""
    sources = internet.mlab_hosts[:2]
    destinations = sorted(
        host.addr
        for host in internet.hosts.values()
        if host.responds_to_ping and not host.is_vantage_point
    )[:n]
    probes = []
    for index, dst in enumerate(destinations):
        src = sources[index % len(sources)]
        probes.append(Probe(src=src, dst=dst, flow_id=index % 3))
        probes.append(rr_ping(src, dst))
    return probes


def outcome_key(outcome, ipid=True):
    echo = outcome.echo
    return (
        outcome.delivered,
        outcome.drop_reason,
        tuple(outcome.forward_router_path),
        tuple(outcome.reply_router_path),
        None
        if echo is None
        else (echo.src, echo.rtt, ipid and echo.ipid, tuple(echo.rr_slots)),
    )


# ----------------------------------------------------------------------
# Property: any interleaving of probes and routing changes
# ----------------------------------------------------------------------

TINY = TopologyConfig.tiny(seed=11)


@lru_cache(maxsize=None)
def tiny_endpoints():
    """(sources, destinations, overridable hosts, flippable ASNs) of
    the tiny topology, each sorted."""
    internet = build_internet(TINY)
    graph = internet.graph
    hosts = sorted(internet.hosts.values(), key=lambda h: h.addr)
    multihomed = [
        h for h in hosts if len(graph.nodes[h.asn].providers()) >= 2
    ]
    # Few enough ASes that a drawn flip often lands on one whose
    # hosts were probed (and whose FIB rows were filled) before it.
    flippable = sorted(
        asn
        for asn, node in graph.nodes.items()
        if node.neighbor_pref and len(node.providers()) >= 2
    )[:4]
    destinations = (
        [
            addr
            for asn in flippable
            for addr in [h.addr for h in hosts if h.asn == asn][:3]
        ]
        + [h.addr for h in multihomed][:12]
        + sorted(internet.iface_owner)[:12]
        + ["203.0.113.7"]  # inside no prefix
    )
    sources = internet.mlab_hosts[:3] + internet.atlas_hosts[:3]
    return sources, destinations, multihomed[:20], flippable


@lru_cache(maxsize=None)
def tiny_new_links():
    """AS pairs ``(a, b)`` of the tiny topology to link: *a* is a
    flippable AS (customer-less), *b* a transit AS it is not adjacent
    to.  Linked as *a*'s provider or peer, *b* gains no provider and
    *a* no customer, so no provider cycle can close."""
    graph = build_internet(TINY).graph
    flippable = tiny_endpoints()[3]
    assert not any(graph.nodes[a].customers() for a in flippable)
    return [
        (a, b)
        for a in flippable
        for b in sorted(graph.nodes)
        if graph.nodes[b].customers() and b not in graph.nodes[a].neighbors
    ]


@lru_cache(maxsize=None)
def tiny_potato_canaries():
    """``{AS: (src, dst)}`` of the tiny topology: each AS with a router
    whose egress pick toward some next AS moves with the AS's
    ``cold_potato``, with a ping that flipping it reroutes (on the way
    out or back).  Sources are the stream's and the hosts of those
    ASes, destinations any host."""
    internet, every_flipped = tiny_with_as_violators(), build_internet(TINY)
    for node in every_flipped.graph.nodes.values():
        node.cold_potato = not node.cold_potato
    potato = [
        asn
        for asn, by_next in sorted(internet.borders.items())
        if any(
            internet._egress_toward(internet.routers[rid], next_as)
            != every_flipped._egress_toward(
                every_flipped.routers[rid], next_as
            )
            for next_as in by_next
            for rid in internet.routers_by_as[asn]
        )
    ]
    hosts = sorted(internet.hosts)
    sources = tiny_endpoints()[0] + [
        addr for addr in hosts if internet.hosts[addr].asn in potato
    ]
    pairs = [(src, dst) for src in sources for dst in hosts if src != dst]

    def ping(net, pair):
        src, dst = pair
        return outcome_key(net.send_probe(Probe(src=src, dst=dst)), False)

    @lru_cache(maxsize=None)
    def unflipped(pair):
        return ping(internet, pair)

    canaries = {}
    for asn in potato:
        # Flipped before its first walk: no memo predates the flip.
        flipped = tiny_with_as_violators()
        node = flipped.graph.nodes[asn]
        node.cold_potato = not node.cold_potato
        canaries[asn] = next(
            pair for pair in pairs if ping(flipped, pair) != unflipped(pair)
        )
    return canaries


@lru_cache(maxsize=None)
def tiny_anycast():
    """``(dst, prefix, spec, anchors, site, moved_to)`` of the tiny
    topology: a two-site anycast announcement of a probed host's
    prefix (its own AS and *site*), the anchors it is announced with,
    and another router of *site* to move that site's anchor to, chosen
    so the move reroutes a ping some stream source sends the host."""
    internet = tiny_with_as_violators()
    sources, destinations, _, _ = tiny_endpoints()

    def pings(dst, prefix, spec, anchors):
        internet.announce(prefix, spec, anchors)
        with uncached_forwarding():
            return [
                outcome_key(internet.send_probe(Probe(src=s, dst=dst)), False)
                for s in sources
            ]

    for dst in destinations:
        host = internet.hosts.get(dst)
        if host is None:
            continue
        prefix = internet.prefix_table.lookup_prefix(dst)
        for site, routers in sorted(internet.routers_by_as.items()):
            if site == host.asn or len(routers) < 2:
                continue
            first, second = sorted(routers)[:2]
            spec = AnnouncementSpec(
                origins=(Origin(host.asn), Origin(site))
            )
            anchors = {host.asn: host.edge_router_id, site: first}
            if pings(dst, prefix, spec, anchors) != pings(
                dst, prefix, spec, {**anchors, site: second}
            ):
                return dst, prefix, spec, anchors, site, second
    raise AssertionError("no anchor move reroutes a stream source")


def tiny_with_as_violators():
    """The tiny topology with every fourth router outside the M-Lab
    ASes an AS-level DBR violator.  The generator draws one such router
    at this scale, on no path the stream probes; flagged like this a
    third of the probed paths deviate through an ``.alt`` entry."""
    internet = build_internet(TINY)
    for router in internet.routers.values():
        if (
            router.router_id % 4 == 0
            and internet.graph.nodes[router.asn].tier is not ASTier.MLAB
        ):
            router.dbr_as_violator = True
    return internet


@st.composite
def forwarding_ops(draw):
    sources, destinations, multihomed, flippable = tiny_endpoints()
    probe = st.tuples(
        st.just("probe"),
        st.sampled_from(sources),
        st.sampled_from(destinations),
        st.sampled_from(("plain", "rr", "spoofed-rr")),
        st.integers(0, 3),
    )
    potato = st.tuples(
        st.just("potato"), st.sampled_from(sorted(tiny_potato_canaries()))
    )
    batch = st.tuples(st.just("batch"), st.sampled_from(destinations))
    sweep = st.tuples(
        st.just("sweep"),
        st.sampled_from(sources),
        st.sampled_from(destinations),
        st.integers(0, 3),
    )
    override = st.tuples(
        st.just("override"), st.integers(0, len(multihomed) - 1)
    )
    flip = st.tuples(
        st.just("flip"), st.sampled_from(flippable), st.integers(0, 7)
    )
    edge = st.tuples(
        st.just("edge"),
        st.sampled_from(tiny_new_links()),
        st.sampled_from((Relationship.PROVIDER, Relationship.PEER)),
    )
    return draw(
        st.lists(
            st.one_of(
                probe, probe, probe, batch, sweep, override, flip,
                potato, edge, st.just(("clear",)), st.just(("noop",)),
                st.just(("anchor",)),
            ),
            min_size=4,
            max_size=24,
        )
    )


def make_probe(src, dst, kind, flow):
    sources = tiny_endpoints()[0]
    if kind == "plain":
        return Probe(src=src, dst=dst, flow_id=flow)
    spoofed = kind == "spoofed-rr"
    return Probe(
        # a spoofed probe claims the next source's address
        src=sources[(sources.index(src) + 1) % len(sources)]
        if spoofed
        else src,
        dst=dst,
        kind=ProbeKind.SPOOFED_RECORD_ROUTE
        if spoofed
        else ProbeKind.RECORD_ROUTE,
        injected_at=src,
        flow_id=flow,
        record_route=RecordRouteOption(),
    )


def fib_rows(internet):
    """``{address: FIB row}`` of every resolved target."""
    return {
        dst: target.row
        for dst, target in internet._resolve_cache.items()
        if target is not None
    }


def apply_op(internet, op):
    """Run one drawn operation; returns what it observed."""
    sources, _, multihomed, _ = tiny_endpoints()
    if op[0] == "probe":
        return outcome_key(internet.send_probe(make_probe(*op[1:])))
    if op[0] == "batch":
        probes = [make_probe(vp, op[1], "rr", 0) for vp in sources[:3]]
        return [
            outcome_key(o) for o in internet.send_probe_batch(probes)
        ]
    if op[0] == "sweep":
        # Every TTL up to 12: the in-path steps after the stop point
        # included.  A step is a reply (hop, rtt, `reached`), not an
        # outcome: its router paths reach the hop tally only.
        probe = make_probe(op[1], op[2], "plain", op[3])
        replies, steps = internet.send_ttl_sweep(probe, 12, MAX_STARS)
        return replies, list(steps)
    if op[0] == "anchor":
        # Announce a two-site anycast prefix, announce it again with one
        # site's anchor moved, withdraw; every stream source pings the
        # host after each.
        dst, prefix, spec, anchors, site, moved_to = tiny_anycast()
        seen = []
        for stage in ("announce", "move", "withdraw"):
            if stage == "announce":
                internet.announce(prefix, spec, anchors)
            elif stage == "move":
                internet.announce(prefix, spec, {**anchors, site: moved_to})
            else:
                internet.withdraw(prefix)
            seen.append(
                [
                    outcome_key(internet.send_probe(Probe(src=s, dst=dst)))
                    for s in sources
                ]
            )
        return seen
    if op[0] == "override":
        host = multihomed[op[1]]
        provider = sorted(internet.graph.nodes[host.asn].providers())[0]
        prefix = internet.prefix_table.lookup_prefix(host.addr)
        internet.announce(
            prefix,
            AnnouncementSpec(
                origins=(Origin(host.asn),),
                no_export=frozenset({(host.asn, provider)}),
            ),
            {host.asn: internet.prefixes[prefix].edge_router_id},
        )
        return internet.routing_generation
    if op[0] == "clear":
        for prefix in list(internet._announcements):
            internet.withdraw(prefix)
        return internet.routing_generation
    if op[0] == "flip":  # the in-place local-pref edit of exp_staleness
        node = internet.graph.nodes[op[1]]
        providers = sorted(node.providers())
        node.neighbor_pref.clear()
        node.neighbor_pref[providers[op[2] % len(providers)]] = 100
    elif op[0] == "potato":
        node = internet.graph.nodes[op[1]]
        node.cold_potato = not node.cold_potato
    elif op[0] == "edge":  # an AS-level link no router link carries
        (a, b), rel_from_a = op[1:]
        if b not in internet.graph.nodes[a].neighbors:
            internet.graph.add_edge(a, b, rel_from_a)
    # noop: nothing changed, and routing is invalidated all the same
    internet.invalidate_routing()
    return internet.routing_generation


@settings(max_examples=60, deadline=None)
@given(ops=forwarding_ops())
def test_memoised_forwarding_equals_recomputing_every_hop(ops):
    memoised, recomputed = tiny_with_as_violators(), tiny_with_as_violators()
    # Every probe is sent again at the end, after whatever rerouted it;
    # a ping each potato flip reroutes is sent first and last.
    canaries = [
        ("probe", src, dst, "plain", 0)
        for src, dst in tiny_potato_canaries().values()
    ]
    resent = [op for op in ops if op[0] in ("probe", "batch", "sweep")]
    for op in canaries + ops + resent + canaries:
        seen = apply_op(memoised, op)
        with uncached_forwarding():
            expected = apply_op(recomputed, op)
        assert seen == expected, op
    assert memoised.probe_outcome_counts == recomputed.probe_outcome_counts
    assert memoised._obs_hops == recomputed._obs_hops
    assert memoised._ipid_counters == recomputed._ipid_counters


class TestDeterminism:
    def test_cached_equals_uncached_probe_stream(self):
        """Same-seed runs, memoised vs. recomputed, are byte-identical,
        including RR (option) probes through load balancers and
        DBR-violating routers."""
        fast = fresh_internet()
        slow = fresh_internet()
        # The topology must actually contain the stochastic router
        # kinds the cache is required to leave outside the FIB.
        assert any(r.is_load_balancer for r in fast.routers.values())
        assert any(r.dbr_violator for r in fast.routers.values())

        for probe_fast, probe_slow in zip(
            probe_stream(fast), probe_stream(slow)
        ):
            out_fast = fast.send_probe(probe_fast)
            with uncached_forwarding():
                out_slow = slow.send_probe(probe_slow)
            assert outcome_key(out_fast) == outcome_key(out_slow)

        stats = fast.forwarding_cache_stats()["caches"]
        assert stats["fib"]["hits"] > 0
        assert stats["resolve"]["hits"] > 0
        assert stats["lpm"]["hits"] > 0
        # The oracle remembered nothing: no target, so no row.
        assert slow._resolve_cache == {} and slow._link_entries == {}
        assert slow.prefix_table.cache_hits == 0

    def test_batch_equals_sequential(self):
        """send_probe_batch shares resolution across the batch but
        produces exactly the per-probe outcomes."""
        batched = fresh_internet()
        sequential = fresh_internet()
        vps = batched.mlab_hosts[:3]
        dst = sorted(
            host.addr
            for host in batched.hosts.values()
            if host.responds_to_options and not host.is_vantage_point
        )[0]

        def make(vp_list):
            return [rr_ping(vp, dst) for vp in vp_list]

        batch_out = batched.send_probe_batch(make(vps))
        seq_out = [sequential.send_probe(p) for p in make(vps)]
        assert [outcome_key(o) for o in batch_out] == [
            outcome_key(o) for o in seq_out
        ]


class TestInvalidation:
    def _overridable_route(self, internet, src):
        """A (host, provider ASN) pair whose forward path crosses one
        of the destination AS's providers, so a no-export override
        actually reroutes it."""
        for host in sorted(
            internet.hosts.values(), key=lambda h: h.addr
        ):
            if (
                not host.responds_to_ping
                or host.is_vantage_point
                or len(internet.graph.nodes[host.asn].providers()) < 2
            ):
                continue
            providers = internet.graph.nodes[host.asn].providers()
            path = internet.ground_truth_router_path(src, host.addr)
            for rid in path:
                asn = internet.routers[rid].asn
                if asn in providers:
                    return host, asn
        pytest.skip("no overridable destination in this topology")

    def test_te_override_flushes_every_cache(self):
        """A TE announcement override (``Internet.announce``) drops the
        resolved targets with their FIB rows, and the rerouted paths
        equal those of a fresh Internet that memoises nothing.  The
        longest-prefix matches read no announcement: they are kept, and
        still agree with a table that has memoised nothing."""
        internet = fresh_internet()
        reference = fresh_internet()

        def reference_path(src, dst):
            with uncached_forwarding():
                return reference.ground_truth_router_path(src, dst)

        src = internet.mlab_hosts[0]
        host, used_provider = self._overridable_route(internet, src)
        prefix = internet.prefix_table.lookup_prefix(host.addr)

        before = internet.ground_truth_router_path(src, host.addr)
        assert before == reference_path(src, host.addr)

        stats = internet.forwarding_cache_stats()["caches"]
        assert stats["fib"]["entries"] > 0
        assert stats["resolve"]["entries"] > 0
        generation = internet.routing_generation

        override = AnnouncementSpec(
            origins=(Origin(host.asn),),
            no_export=frozenset({(host.asn, used_provider)}),
        )
        for net in (internet, reference):
            anchor = net.prefixes[prefix].edge_router_id
            net.announce(prefix, override, {host.asn: anchor})

        flushed = internet.forwarding_cache_stats()
        assert flushed["routing_generation"] == generation + 1
        assert flushed["caches"]["fib"]["entries"] == 0
        assert flushed["caches"]["resolve"]["entries"] == 0
        remembered = list(internet.prefix_table._prefix_cache)
        assert host.addr in remembered
        table = PrefixTable()
        for info in internet.prefixes.values():
            table.insert(info.prefix, info)
        for addr in remembered:
            assert internet.prefix_table.lookup_prefix(
                addr
            ) == table.lookup_prefix(addr), addr

        after = internet.ground_truth_router_path(src, host.addr)
        # The cached Internet re-converges to exactly the uncached
        # reference's post-override routing; if the destination is
        # still reachable, the override moved the path.
        assert after == reference_path(src, host.addr)
        if after:
            assert after != before

    def test_noop_invalidation_keeps_what_the_graph_determines(
        self, monkeypatch
    ):
        """Nothing changed: the call starts a routing generation, but
        floods no spec again and keeps every forwarding memo — the
        resolved targets and their rows, the link entries, the LPM
        memo, the egress picks and the alternate next-ASes — so a
        re-walk computes no FIB entry.  The first call on a fresh
        Internet already keeps them."""
        internet = tiny_with_as_violators()
        sources, destinations, _, _ = tiny_endpoints()
        pairs = [(s, d) for s in sources for d in destinations]
        before = [internet.ground_truth_router_path(*p) for p in pairs]
        rows = {dst: dict(row) for dst, row in fib_rows(internet).items()}
        links = dict(internet._link_entries)
        resolved = dict(internet._resolve_cache)
        egress = dict(internet._egress)
        alternates = dict(internet._alt_next_as)
        assert rows and links and resolved
        assert egress and alternates
        lpm = internet.forwarding_cache_stats()["caches"]["lpm"]["entries"]
        flood, floods = RoutingPolicy._flood, []
        compute, computed = Internet._compute_fib_entry, []

        def counted_flood(policy, spec):
            floods.append(spec)
            return flood(policy, spec)

        def counted_compute(net, router, target):
            computed.append(router.router_id)
            return compute(net, router, target)

        monkeypatch.setattr(RoutingPolicy, "_flood", counted_flood)
        monkeypatch.setattr(Internet, "_compute_fib_entry", counted_compute)
        generation = internet.routing_generation
        internet.invalidate_routing()

        stats = internet.forwarding_cache_stats()
        assert stats["routing_generation"] == generation + 1
        assert stats["caches"]["lpm"]["entries"] == lpm
        assert {
            dst: dict(row) for dst, row in fib_rows(internet).items()
        } == rows
        assert internet._link_entries == links
        assert internet._resolve_cache == resolved
        assert internet._egress == egress
        assert internet._alt_next_as == alternates
        assert [internet.ground_truth_router_path(*p) for p in pairs] == before
        assert computed == []
        assert floods == []

    def test_cold_potato_flip_is_honoured_after_invalidation(self):
        """The egress pick reads ``ASNode.cold_potato``, which is part
        of the policy's compiled view; flipped in place and back, each
        ``invalidate_routing()`` must drop the picks made under the
        other value and serve those of the value now set."""
        internet, reference = build_internet(TINY), build_internet(TINY)
        sources, destinations, _, _ = tiny_endpoints()
        pairs = [(s, d) for s in sources for d in destinations]

        def paths(net):
            return [net.ground_truth_router_path(s, d) for s, d in pairs]

        def flip_all(net):
            for node in net.graph.nodes.values():
                node.cold_potato = not node.cold_potato
            net.invalidate_routing()

        before = paths(internet)
        for expect_moved in (True, False):
            flip_all(internet)
            flip_all(reference)
            now = paths(internet)
            with uncached_forwarding():
                assert now == paths(reference)
            assert (now != before) is expect_moved


class TestTopologyMutation:
    def test_links_connected_after_a_walk_are_forwarded_over(self):
        """``connect()`` after the first walk: the IGP tables, the
        egress picks, the shared entries and the filled rows all
        predate the link and must all be dropped, so paths equal those
        of a twin built with the links from the start."""
        late, twin = build_internet(TINY), build_internet(TINY)
        sources, destinations, _, _ = tiny_endpoints()
        pairs = [(s, d) for s in sources for d in destinations]

        def observe(net):
            return [
                (
                    net.ground_truth_router_path(s, d),
                    # IP-IDs count the replies sent so far: not compared
                    outcome_key(net.send_probe(rr_ping(s, d)), ipid=False),
                )
                for s, d in pairs
            ]

        before = observe(late)
        asn_of = {rid: r.asn for rid, r in late.routers.items()}
        shortcut = border = None
        for path, _ in before:
            for a, b, c in zip(path, path[1:], path[2:]):
                if asn_of[a] == asn_of[b] == asn_of[c]:
                    # a -> c directly: an intra-AS shortcut past b
                    shortcut = shortcut or (a, c)
                elif asn_of[a] == asn_of[b] != asn_of[c]:
                    # a reaches the next AS itself: an extra border link
                    border = border or (a, c)
        assert shortcut and border and shortcut[0] != border[0]
        generation = late.routing_generation
        for net in (twin, late):
            net.connect(*shortcut, "198.18.0.1", "198.18.0.2")
            net.connect(*border, "198.18.0.5", "198.18.0.6")
            net.finalize()
        # Before a walk the flush is free; after one it starts a
        # routing generation.
        assert twin.routing_generation == 0
        assert late.routing_generation > generation
        after = observe(late)
        assert after == observe(twin)
        assert after != before
        for a, c in (shortcut, border):
            assert any(
                (a, c) in zip(path, path[1:]) for path, _ in after
            ), (a, c)


def vantage_point_wave(internet):
    """200 probes: ten vantage points at each of twenty destinations,
    pings and RR pings alternating."""
    sources = (internet.mlab_hosts + internet.atlas_hosts)[:10]
    destinations = sorted(
        host.addr
        for host in internet.hosts.values()
        if host.responds_to_ping and not host.is_vantage_point
    )[:20]
    probes = []
    for dst in destinations:
        for src in sources:
            if len(probes) % 2:
                probes.append(rr_ping(src, dst))
            else:
                probes.append(
                    Probe(src=src, dst=dst, flow_id=len(probes) % 3)
                )
    return probes


class TestSharedEntries:
    """One ``FibEntry`` per link, referenced from every row slot that
    resolves to it.  Counts only: what the sharing buys in bytes and
    seconds is the end-to-end benchmark's to say."""

    @pytest.fixture(scope="class")
    def walked(self):
        internet = fresh_internet()
        for probe in vantage_point_wave(internet):
            internet.send_probe(probe)
        return internet

    @staticmethod
    def slots(internet):
        return [
            (router_id, entry)
            for row in fib_rows(internet).values()
            for router_id, entry in row.items()
        ]

    def test_a_quarter_as_many_objects_as_slots(self, walked):
        slots = self.slots(walked)
        objects = {id(entry) for _, entry in slots} | {
            id(entry.alt) for _, entry in slots if entry.alt is not None
        }
        assert len(objects) <= 0.25 * len(slots)

    def test_deliver_slots_are_the_link_memos_objects(self, walked):
        delivers = [
            (router_id, entry)
            for router_id, entry in self.slots(walked)
            if entry.kind == FIB_DELIVER
            and not walked.routers[router_id].dbr_as_violator
        ]
        assert len(delivers) > 700
        for router_id, entry in delivers:
            assert (
                entry is walked._link_entries[router_id, entry.via[0]]
            )

    def test_entries_still_counts_slots(self, walked):
        stats = walked.forwarding_cache_stats()["caches"]["fib"]
        assert stats["entries"] == fib_entry_count(walked) > 900

    def test_sharing_moved_no_lookup(self, walked):
        """Same hits, misses and slot count as a twin whose rows are
        memoised but whose every slot holds a private entry."""
        twin = fresh_internet()
        with private_entries():
            for probe in vantage_point_wave(twin):
                twin.send_probe(probe)
        slots = self.slots(twin)
        assert len({id(entry) for _, entry in slots}) == len(slots)
        assert (
            walked.forwarding_cache_stats()["caches"]["fib"]
            == twin.forwarding_cache_stats()["caches"]["fib"]
        )


class TestResolutionCaches:
    def test_resolve_is_memoized_and_flushed(self, small_internet):
        internet = small_internet
        dst = sorted(
            host.addr for host in internet.hosts.values()
        )[0]
        internet._flush_resolution_caches()
        first = internet.resolve(dst)
        hits = internet._resolve_hits
        second = internet.resolve(dst)
        assert second is first
        assert internet._resolve_hits == hits + 1
        internet._flush_resolution_caches()
        assert internet._resolve_cache == {}

    def test_add_host_flushes_resolution(self, small_internet):
        internet = small_internet
        info = next(
            info
            for info in internet.prefixes.values()
            if info.hosts and not info.is_infrastructure
        )
        template = next(iter(info.hosts.values()))
        internet.resolve(template.addr)
        assert internet._resolve_cache
        free = next(
            addr
            for addr in info.prefix.addresses()
            if addr not in internet.hosts
            and addr not in internet.iface_owner
        )
        host = Host(
            addr=free,
            asn=template.asn,
            edge_router_id=template.edge_router_id,
        )
        info.add_host(host)
        internet.add_host(host)
        assert internet._resolve_cache == {}
        resolved = internet.resolve(free)
        assert resolved is not None and resolved.host is host


class TestPrefixTableCache:
    def test_lookup_cache_counts_and_insert_flush(self):
        table = PrefixTable()
        table.insert(Prefix(addr_to_int("10.0.0.0"), 8), "coarse")
        assert table.lookup("10.1.2.3") == "coarse"
        assert table.lookup("10.1.2.3") == "coarse"
        assert table.cache_hits == 1
        assert table.cache_misses == 1
        assert table.cached_lookups == 1
        # A more-specific insert must invalidate the memoized result.
        table.insert(Prefix(addr_to_int("10.1.2.0"), 24), "fine")
        assert table.cached_lookups == 0
        assert table.lookup("10.1.2.3") == "fine"

    def test_negative_results_are_cached(self):
        table = PrefixTable()
        table.insert(Prefix(addr_to_int("10.0.0.0"), 8), "value")
        assert table.lookup("192.168.1.1") is None
        assert table.lookup("192.168.1.1") is None
        assert table.cache_hits == 1


class TestAccounting:
    def test_stats_shape_and_introspection(self, small_scenario):
        stats = small_scenario.internet.forwarding_cache_stats()
        assert set(stats["caches"]) == {"fib", "resolve", "lpm"}
        for cache_stats in stats["caches"].values():
            assert set(cache_stats) == {"hits", "misses", "entries"}
