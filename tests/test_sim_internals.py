"""Deeper simulator tests: reply routing, violations, rate limiting,
intra-AS machinery, and interface anchoring."""

import pytest

from repro.net.options import RecordRouteOption
from repro.net.packet import Probe, ProbeKind
from repro.probing import Prober
from repro.topology import TopologyConfig, build_internet
from repro.topology.policy import AnnouncementSpec


class TestReplyRouting:
    def test_reply_path_starts_at_responder(self, tiny_internet):
        src = tiny_internet.mlab_hosts[0]
        dst = sorted(
            h.addr
            for h in tiny_internet.hosts.values()
            if h.responds_to_ping and not h.is_vantage_point
        )[0]
        outcome = tiny_internet.send_probe(Probe(src=src, dst=dst))
        assert outcome.delivered
        first_reply_router = outcome.reply_router_path[0]
        host = tiny_internet.hosts[dst]
        assert first_reply_router == host.edge_router_id

    def test_reply_path_ends_at_source_edge(self, tiny_internet):
        src = tiny_internet.mlab_hosts[0]
        dst = sorted(
            h.addr
            for h in tiny_internet.hosts.values()
            if h.responds_to_ping and not h.is_vantage_point
        )[1]
        outcome = tiny_internet.send_probe(Probe(src=src, dst=dst))
        assert outcome.delivered
        last = outcome.reply_router_path[-1]
        assert last == tiny_internet.hosts[src].edge_router_id

    def test_forward_and_reply_are_independent_walks(
        self, tiny_internet
    ):
        """Forward and reply router paths may differ (asymmetry), but
        both must be loop-free walks."""
        src = tiny_internet.mlab_hosts[1]
        hosts = sorted(
            h.addr
            for h in tiny_internet.hosts.values()
            if h.responds_to_ping and not h.is_vantage_point
        )
        for dst in hosts[:15]:
            outcome = tiny_internet.send_probe(Probe(src=src, dst=dst))
            if not outcome.delivered:
                continue
            for path in (
                outcome.forward_router_path,
                outcome.reply_router_path,
            ):
                counts = {}
                for rid in path:
                    counts[rid] = counts.get(rid, 0) + 1
                assert max(counts.values()) <= 2


class TestViolatorDeterminism:
    def test_same_source_same_path(self, tiny_internet):
        """DBR violators hash the source: identical packets always
        take identical paths (that is what makes them violations, not
        load balancing)."""
        src = tiny_internet.mlab_hosts[0]
        hosts = sorted(
            h.addr
            for h in tiny_internet.hosts.values()
            if h.responds_to_ping
        )
        for dst in hosts[:10]:
            first = tiny_internet.send_probe(
                Probe(src=src, dst=dst)
            ).forward_router_path
            second = tiny_internet.send_probe(
                Probe(src=src, dst=dst)
            ).forward_router_path
            assert first == second


class TestInterfaceAnchoring:
    def test_every_link_interface_is_probeable(self, tiny_internet):
        """Link interfaces (including neighbour-numbered ones) must be
        reachable from a vantage point."""
        src = tiny_internet.mlab_hosts[0]
        reached = tried = 0
        for addr in sorted(tiny_internet.iface_owner)[:80]:
            if tiny_internet.router_of(addr) is None:
                continue
            tried += 1
            outcome = tiny_internet.send_probe(
                Probe(src=src, dst=addr)
            )
            if outcome.delivered:
                reached += 1
        assert tried > 0
        assert reached / tried >= 0.9

    def test_delivery_enters_via_the_link(self, tiny_internet):
        """Probing a /30 interface delivers via one of the two link
        endpoints (connected-subnet routing, §4.4's mechanics)."""
        from repro.net.addr import slash30_peer

        src = tiny_internet.mlab_hosts[0]
        checked = 0
        for addr, owner_id in sorted(
            tiny_internet.iface_owner.items()
        ):
            peer = slash30_peer(addr)
            if peer is None or peer not in tiny_internet.iface_owner:
                continue
            outcome = tiny_internet.send_probe(
                Probe(src=src, dst=addr)
            )
            if not outcome.delivered:
                continue
            path = outcome.forward_router_path
            assert path[-1] == owner_id
            if len(path) >= 2:
                peer_owner = tiny_internet.iface_owner[peer]
                # Penultimate is either the link's other endpoint or
                # an intra-AS neighbour of the owner.
                assert (
                    path[-2] == peer_owner
                    or path[-2]
                    in tiny_internet.adjacency.get(owner_id, {})
                )
            checked += 1
            if checked >= 25:
                break
        assert checked > 0


class TestRateLimiting:
    def test_prober_enforces_vp_pps(self, tiny_internet):
        """Bursts beyond 100 pps from one VP push the virtual clock."""
        prober = Prober(tiny_internet, vp_rate_pps=100.0)
        src = tiny_internet.mlab_hosts[0]
        dst = sorted(
            h.addr
            for h in tiny_internet.hosts.values()
            if h.responds_to_ping
        )[0]
        for _ in range(250):
            prober.ping(src, dst)
        # Token bucket: burst of 100, then 100 pps — 250 probes cannot
        # complete in less than 1.5 virtual seconds.
        assert prober.clock.now() >= 1.5


class TestAnnouncementOverrides:
    def test_prefix_override_changes_routing(self, small_internet):
        """A no-export override on a prefix announcement reroutes
        traffic toward it without touching other prefixes."""
        internet = small_internet
        src = internet.mlab_hosts[0]
        host = next(
            h
            for h in internet.hosts.values()
            if h.responds_to_ping
            and not h.is_vantage_point
            and len(
                internet.graph.nodes[h.asn].providers()
            ) >= 2
        )
        prefix = internet.prefix_table.lookup_prefix(host.addr)
        providers = internet.graph.nodes[host.asn].providers()
        before = internet.ground_truth_router_path(src, host.addr)
        # Block the announcement toward the provider the path uses.
        used_provider = None
        for rid in before:
            asn = internet.routers[rid].asn
            if asn in providers:
                used_provider = asn
        if used_provider is None:
            pytest.skip("path does not end via a provider")
        from repro.topology.policy import AnnouncementSpec, Origin

        internet.announce(
            prefix,
            AnnouncementSpec(
                origins=(Origin(host.asn),),
                no_export=frozenset({(host.asn, used_provider)}),
            ),
            {host.asn: internet.prefixes[prefix].edge_router_id},
        )
        try:
            after = internet.ground_truth_router_path(src, host.addr)
            after_asns = {
                internet.routers[rid].asn for rid in after
            }
            if after:  # still reachable via the other provider
                assert before != after
        finally:
            internet.withdraw(prefix)
