"""Forwarding-engine tests: delivery, options, TTL, spoofing, anycast."""

import pytest

from repro.net.options import RECORD_ROUTE_SLOTS, RecordRouteOption, TimestampOption
from repro.net.packet import Probe, ProbeKind
from repro.topology.policy import AnnouncementSpec, Origin


def responsive_host(internet, skip=0):
    hosts = sorted(
        h.addr
        for h in internet.hosts.values()
        if h.responds_to_options and h.stamps_rr and not h.is_vantage_point
    )
    return hosts[skip]


class TestDelivery:
    def test_ping_round_trip(self, tiny_internet):
        src = tiny_internet.mlab_hosts[0]
        dst = responsive_host(tiny_internet)
        outcome = tiny_internet.send_probe(Probe(src=src, dst=dst))
        assert outcome.delivered
        assert outcome.responder == dst
        assert outcome.echo.rtt > 0

    def test_unreachable_address(self, tiny_internet):
        src = tiny_internet.mlab_hosts[0]
        outcome = tiny_internet.send_probe(
            Probe(src=src, dst="203.0.113.1")
        )
        assert not outcome.delivered
        assert outcome.drop_reason == "unreachable-destination"

    def test_private_destination_unroutable(self, tiny_internet):
        src = tiny_internet.mlab_hosts[0]
        outcome = tiny_internet.send_probe(Probe(src=src, dst="10.0.0.1"))
        assert not outcome.delivered

    def test_unresponsive_host_no_reply(self, tiny_internet):
        dead = next(
            h.addr
            for h in tiny_internet.hosts.values()
            if not h.responds_to_ping
        )
        src = tiny_internet.mlab_hosts[0]
        outcome = tiny_internet.send_probe(Probe(src=src, dst=dead))
        assert not outcome.delivered
        assert outcome.drop_reason == "destination-unresponsive"

    def test_router_interface_is_probeable(self, tiny_internet):
        src = tiny_internet.mlab_hosts[0]
        router = next(
            r
            for r in tiny_internet.routers.values()
            if r.responds_to_ping and r.loopback
        )
        outcome = tiny_internet.send_probe(
            Probe(src=src, dst=router.loopback)
        )
        assert outcome.delivered
        assert outcome.responder == router.loopback

    def test_deterministic_forward_path(self, tiny_internet):
        src = tiny_internet.mlab_hosts[0]
        dst = responsive_host(tiny_internet)
        path1 = tiny_internet.send_probe(
            Probe(src=src, dst=dst)
        ).forward_router_path
        path2 = tiny_internet.send_probe(
            Probe(src=src, dst=dst)
        ).forward_router_path
        assert path1 == path2


class TestRecordRoute:
    def test_destination_stamp_present(self, tiny_internet):
        src = tiny_internet.mlab_hosts[0]
        dst = responsive_host(tiny_internet)
        outcome = tiny_internet.send_probe(
            Probe(
                src=src,
                dst=dst,
                kind=ProbeKind.RECORD_ROUTE,
                record_route=RecordRouteOption(),
            )
        )
        assert outcome.delivered
        slots = outcome.echo.rr_slots
        assert dst in slots or len(slots) == RECORD_ROUTE_SLOTS

    def test_slots_never_exceed_nine(self, small_internet):
        src = small_internet.mlab_hosts[0]
        for host in list(small_internet.hosts.values())[:40]:
            if not host.responds_to_options:
                continue
            outcome = small_internet.send_probe(
                Probe(
                    src=src,
                    dst=host.addr,
                    kind=ProbeKind.RECORD_ROUTE,
                    record_route=RecordRouteOption(),
                )
            )
            if outcome.echo is not None:
                assert len(outcome.echo.rr_slots) <= RECORD_ROUTE_SLOTS

    def test_reverse_hops_follow_destination_stamp(self, tiny_internet):
        """Addresses after the destination stamp belong to routers on
        the reply path."""
        src = tiny_internet.mlab_hosts[0]
        dst = responsive_host(tiny_internet)
        outcome = tiny_internet.send_probe(
            Probe(
                src=src,
                dst=dst,
                kind=ProbeKind.RECORD_ROUTE,
                record_route=RecordRouteOption(),
            )
        )
        slots = outcome.echo.rr_slots
        if dst in slots:
            reverse = slots[slots.index(dst) + 1 :]
            reply_routers = set(outcome.reply_router_path)
            for addr in reverse:
                owner = tiny_internet.iface_owner.get(addr)
                router = (
                    tiny_internet.routers.get(owner)
                    if owner is not None
                    else None
                )
                if router is not None:
                    assert router.router_id in reply_routers


class TestTTL:
    def test_ttl_expiry_returns_hop(self, tiny_internet):
        src = tiny_internet.mlab_hosts[0]
        dst = responsive_host(tiny_internet)
        outcome = tiny_internet.send_probe(Probe(src=src, dst=dst, ttl=1))
        assert outcome.te_reply is not None
        assert outcome.te_reply.ttl == 1
        assert not outcome.te_reply.reached

    def test_ttl_sweep_reaches_destination(self, tiny_internet):
        src = tiny_internet.mlab_hosts[0]
        dst = responsive_host(tiny_internet)
        for ttl in range(1, 32):
            outcome = tiny_internet.send_probe(
                Probe(src=src, dst=dst, ttl=ttl)
            )
            if outcome.te_reply is None:
                assert outcome.delivered
                break
        else:
            pytest.fail("TTL sweep never reached destination")


class TestSpoofing:
    def test_spoofed_reply_reaches_spoofed_source(self, tiny_internet):
        spoofers = [
            addr
            for addr in tiny_internet.mlab_hosts
            if tiny_internet.graph.nodes[
                tiny_internet.hosts[addr].asn
            ].allows_spoofing
        ]
        assert len(spoofers) >= 2
        vp, source = spoofers[0], spoofers[1]
        dst = responsive_host(tiny_internet)
        outcome = tiny_internet.send_probe(
            Probe(
                src=source,
                dst=dst,
                injected_at=vp,
                kind=ProbeKind.SPOOFED_RECORD_ROUTE,
                record_route=RecordRouteOption(),
            )
        )
        assert outcome.delivered
        # Reply was routed toward the spoofed source, not the VP.
        assert outcome.echo.dst == source

    def test_spoof_filtered_as_drops(self, tiny_internet):
        filtered = [
            h.addr
            for h in tiny_internet.hosts.values()
            if not tiny_internet.graph.nodes[h.asn].allows_spoofing
            and h.is_vantage_point
        ]
        if not filtered:
            pytest.skip("no spoof-filtered VP in this topology seed")
        source = tiny_internet.mlab_hosts[0]
        dst = responsive_host(tiny_internet)
        outcome = tiny_internet.send_probe(
            Probe(
                src=source,
                dst=dst,
                injected_at=filtered[0],
                record_route=RecordRouteOption(),
            )
        )
        assert not outcome.delivered
        assert outcome.drop_reason == "spoof-filtered"


class TestTimestamp:
    def test_prespec_destination_stamps_first(self, tiny_internet):
        src = tiny_internet.mlab_hosts[0]
        dst = responsive_host(tiny_internet)
        option = TimestampOption.prespec([dst, "203.0.113.9"])
        outcome = tiny_internet.send_probe(
            Probe(
                src=src,
                dst=dst,
                kind=ProbeKind.TIMESTAMP,
                timestamp=option,
            )
        )
        assert outcome.delivered
        stamped = outcome.echo.timestamp.stamped
        assert stamped[0] is not None  # the destination stamped
        assert stamped[1] is None  # bogus adjacency did not


class TestAnycast:
    def test_anycast_catchment_delivery(self, small_internet):
        """A prefix announced from two ASes delivers to the closer
        origin per BGP policy."""
        internet = small_internet
        mlab = internet.mlab_hosts
        host_a = internet.hosts[mlab[0]]
        host_b = internet.hosts[mlab[1]]
        prefix = internet.prefix_table.lookup_prefix(mlab[0])
        spec = AnnouncementSpec(
            origins=tuple(
                Origin(asn) for asn in sorted([host_a.asn, host_b.asn])
            )
        )
        internet.announcements[prefix] = spec
        internet.anycast_anchors[prefix] = {
            host_a.asn: host_a.edge_router_id,
            host_b.asn: host_b.edge_router_id,
        }
        try:
            dst = responsive_host(internet)
            probe = Probe(src=dst, dst=mlab[0])
            outcome = internet.send_probe(probe)
            assert outcome.delivered
            landing_router = outcome.forward_router_path[-1]
            landing_asn = internet.routers[landing_router].asn
            expected = internet.policy.catchment(
                internet.hosts[dst].asn, spec
            )
            assert landing_asn in (host_a.asn, host_b.asn)
            assert landing_asn == expected
        finally:
            del internet.announcements[prefix]
            del internet.anycast_anchors[prefix]
            internet.invalidate_routing()
