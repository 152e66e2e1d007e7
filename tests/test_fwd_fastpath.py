"""Forwarding memos: determinism, invalidation, sharing, and accounting.

The memos' contract is that they are *invisible* except in speed and
size: memoised forwarding must be bit-identical to recomputing every
decision (``tests/helpers/reference_walk.py``), including the
stochastic load-balancer and DBR-violator hops, whose per-packet
choices stay outside the cache; every memo must be dropped when a
traffic-engineering announcement change calls ``invalidate_routing()``
or ``connect()`` adds a link; and sharing one ``FibEntry`` between the
row slots that resolve to the same link must move no lookup.
"""

from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from repro.net.addr import Prefix, PrefixTable
from repro.net.host import Host
from repro.net.options import RecordRouteOption
from repro.net.packet import Probe, ProbeKind
from repro.sim.forwarding import FIB_DELIVER
from repro.topology import TopologyConfig
from repro.topology.asgraph import ASTier
from repro.topology.generator import build_internet
from repro.topology.policy import AnnouncementSpec, Origin
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
        outcome.responder,
        outcome.drop_reason,
        tuple(outcome.forward_router_path),
        tuple(outcome.reply_router_path),
        None
        if echo is None
        else (echo.src, echo.rtt, ipid and echo.ipid, tuple(echo.rr_slots)),
        outcome.te_reply,
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
        st.sampled_from(("plain", "rr", "spoofed-rr", "ttl")),
        st.integers(0, 3),
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
    return draw(
        st.lists(
            st.one_of(
                probe, probe, probe, batch, sweep, override, flip,
                st.just(("clear",)),
            ),
            min_size=4,
            max_size=24,
        )
    )


def make_probe(src, dst, kind, flow):
    sources = tiny_endpoints()[0]
    if kind == "plain":
        return Probe(src=src, dst=dst, flow_id=flow)
    if kind == "ttl":
        return Probe(src=src, dst=dst, flow_id=flow, ttl=2 + flow)
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


def apply_op(internet, op, leak_stale_rows=False):
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
        probe = make_probe(op[1], op[2], "plain", op[3])
        return [
            outcome_key(o) for o in internet.send_ttl_sweep(probe, 12)
        ]
    stale = dict(internet._fib)
    if op[0] == "override":
        host = multihomed[op[1]]
        provider = sorted(internet.graph.nodes[host.asn].providers())[0]
        prefix = internet.prefix_table.lookup_prefix(host.addr)
        internet.announcements[prefix] = AnnouncementSpec(
            origins=(Origin(host.asn),),
            no_export=frozenset({(host.asn, provider)}),
        )
    elif op[0] == "clear":
        internet.announcements.clear()
    else:  # flip: the in-place local-pref edit of exp_staleness
        node = internet.graph.nodes[op[1]]
        providers = sorted(node.providers())
        node.neighbor_pref.clear()
        node.neighbor_pref[providers[op[2] % len(providers)]] = 100
    internet.invalidate_routing()
    if leak_stale_rows:
        # A reference to the old rows outlives the invalidation: the
        # generation stamp alone must make every entry a miss.
        internet._fib.update(stale)
    return internet.routing_generation


@settings(max_examples=60, deadline=None)
@given(ops=forwarding_ops())
def test_memoised_forwarding_equals_recomputing_every_hop(ops):
    memoised, recomputed = tiny_with_as_violators(), tiny_with_as_violators()
    # Every probe is sent again at the end, after whatever rerouted it.
    for op in ops + [
        op for op in ops if op[0] in ("probe", "batch", "sweep")
    ]:
        seen = apply_op(memoised, op, leak_stale_rows=True)
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
        # The oracle remembered nothing.
        assert slow._fib == {}
        assert slow._resolve_cache == {} and slow._announce_cache == {}
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
        """A TE announcement override + invalidate_routing() drops the
        FIB, resolution, announcement, and LPM caches, and the rerouted
        paths equal those of a fresh Internet that memoises nothing."""
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
            net.announcements[prefix] = override
            net.invalidate_routing()

        flushed = internet.forwarding_cache_stats()
        assert flushed["routing_generation"] == generation + 1
        assert flushed["caches"]["fib"]["entries"] == 0
        assert flushed["caches"]["resolve"]["entries"] == 0
        assert flushed["caches"]["announcement"]["entries"] == 0
        assert flushed["caches"]["lpm"]["entries"] == 0

        after = internet.ground_truth_router_path(src, host.addr)
        # The cached Internet re-converges to exactly the uncached
        # reference's post-override routing; if the destination is
        # still reachable, the override moved the path.
        assert after == reference_path(src, host.addr)
        if after:
            assert after != before

    def test_stale_generation_entries_are_misses(self):
        """FIB entries stamped with an older generation are recomputed
        even if a stale shard survived a flush."""
        internet = fresh_internet()
        src = internet.mlab_hosts[0]
        dst = sorted(
            host.addr
            for host in internet.hosts.values()
            if host.responds_to_ping and not host.is_vantage_point
        )[0]
        internet.ground_truth_router_path(src, dst)
        stale = {
            spec: {
                d: dict(row) for d, row in shard.items()
            }
            for spec, shard in internet._fib.items()
        }
        stale_links = dict(internet._link_entries)
        internet.invalidate_routing()
        assert not internet._egress and not internet._link_entries
        # Simulate a leaked stale shard, and a leaked shared entry.
        internet._fib.update(stale)
        internet._link_entries.update(stale_links)
        misses_before = internet._fib_misses
        path = internet.ground_truth_router_path(src, dst)
        assert internet._fib_misses == misses_before + len(path)
        # What the misses wrote carries this generation's stamp, not a
        # stale shared entry's: walked again, every hop is a hit.
        internet.ground_truth_router_path(src, dst)
        assert internet._fib_misses == misses_before + len(path)

    def test_cold_potato_flip_is_honoured_after_invalidation(self):
        """The egress pick reads ``ASNode.cold_potato``; flipped in
        place, ``invalidate_routing()`` must drop the picks made under
        the old value."""
        internet, reference = build_internet(TINY), build_internet(TINY)
        sources, destinations, _, _ = tiny_endpoints()
        pairs = [(s, d) for s in sources for d in destinations]

        def paths(net):
            return [net.ground_truth_router_path(s, d) for s, d in pairs]

        before = paths(internet)
        for net in (internet, reference):
            for node in net.graph.nodes.values():
                node.cold_potato = not node.cold_potato
            net.invalidate_routing()
        after = paths(internet)
        with uncached_forwarding():
            assert after == paths(reference)
        assert after != before


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
            for shard in internet._fib.values()
            for row in shard.values()
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
        table.insert(Prefix.parse("10.0.0.0/8"), "coarse")
        assert table.lookup("10.1.2.3") == "coarse"
        assert table.lookup("10.1.2.3") == "coarse"
        assert table.cache_hits == 1
        assert table.cache_misses == 1
        assert table.cached_lookups == 1
        # A more-specific insert must invalidate the memoized result.
        table.insert(Prefix.parse("10.1.2.0/24"), "fine")
        assert table.cached_lookups == 0
        assert table.lookup("10.1.2.3") == "fine"

    def test_negative_results_are_cached(self):
        table = PrefixTable()
        table.insert(Prefix.parse("10.0.0.0/8"), "value")
        assert table.lookup("192.168.1.1") is None
        assert table.lookup("192.168.1.1") is None
        assert table.cache_hits == 1


class TestAccounting:
    def test_stats_shape_and_introspection(self, small_scenario):
        stats = small_scenario.internet.forwarding_cache_stats()
        assert set(stats["caches"]) == {
            "fib", "resolve", "announcement", "lpm"
        }
        for cache_stats in stats["caches"].values():
            assert set(cache_stats) == {"hits", "misses", "entries"}
