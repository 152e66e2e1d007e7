"""Tests for IP-to-AS mapping, relationships, and bdrmapit-lite."""

import pytest

from repro.asmap import ASRelationships, BdrmapitLite, IPToASMapper
from repro.asmap.ip2as import collapse_as_path
from repro.net.packet import TracerouteResult
from repro.probing import Prober, paris_traceroute
from repro.topology.asgraph import ASGraph, ASTier, Relationship


class TestIPToAS:
    def test_host_maps_to_its_as(self, tiny_internet):
        mapper = IPToASMapper(tiny_internet)
        for host in list(tiny_internet.hosts.values())[:20]:
            assert mapper.asn(host.addr) == host.asn

    def test_private_unmapped(self, tiny_internet):
        mapper = IPToASMapper(tiny_internet)
        assert mapper.asn("10.1.2.3") is None
        assert mapper.asn(None) is None

    def test_border_interface_maps_to_numbering_as(self, tiny_internet):
        """The Fig. 4 artifact: an interdomain /30 numbered from the
        neighbour's space maps to the neighbour, not the owner."""
        mapper = IPToASMapper(tiny_internet)
        found = False
        for addr, owner_id in tiny_internet.iface_owner.items():
            owner = tiny_internet.routers[owner_id]
            mapped = mapper.asn(addr)
            if mapped is not None and mapped != owner.asn:
                anchor = tiny_internet.routers[
                    tiny_internet.iface_anchor[addr]
                ]
                assert mapped == anchor.asn
                found = True
        assert found, "expected at least one neighbour-numbered iface"

    def test_same_as(self, tiny_internet):
        mapper = IPToASMapper(tiny_internet)
        hosts = list(tiny_internet.hosts.values())
        h = hosts[0]
        same_prefix_peer = next(
            x for x in hosts if x.asn == h.asn and x.addr != h.addr
        )
        assert mapper.same_as(h.addr, same_prefix_peer.addr) is True
        assert mapper.same_as(h.addr, "10.0.0.1") is None

    def test_overrides(self, tiny_internet):
        mapper = IPToASMapper(tiny_internet)
        host = next(iter(tiny_internet.hosts.values()))
        mapper.apply_overrides({host.addr: 64999})
        assert mapper.asn(host.addr) == 64999
        mapper.clear_overrides()
        assert mapper.asn(host.addr) == host.asn


class TestCollapse:
    def test_dedup_consecutive(self):
        assert collapse_as_path([1, 1, 2, 2, 3]) == [1, 2, 3]

    def test_drop_none(self):
        assert collapse_as_path([1, None, 1, None, 2]) == [1, 2]

    def test_empty(self):
        assert collapse_as_path([]) == []
        assert collapse_as_path([None, None]) == []


class TestRelationships:
    def _graph(self):
        graph = ASGraph()
        # big provider 1 -> mid 2 -> small 3; 2 also serves 4 and a
        # dozen other stubs so that 1's customer cone exceeds the
        # "small AS" threshold.
        graph.add_as(1, ASTier.TIER1)
        graph.add_as(2, ASTier.TRANSIT)
        graph.add_as(3, ASTier.STUB)
        graph.add_as(4, ASTier.STUB)
        graph.add_edge(1, 2, Relationship.CUSTOMER)
        graph.add_edge(2, 3, Relationship.CUSTOMER)
        graph.add_edge(2, 4, Relationship.CUSTOMER)
        for extra in range(10, 20):
            graph.add_as(extra, ASTier.STUB)
            graph.add_edge(2, extra, Relationship.CUSTOMER)
        return graph

    def test_small_as(self):
        rel = ASRelationships(self._graph())
        assert rel.is_small(3)
        assert not rel.is_small(1)
        assert not rel.is_small(2)

    def test_cone_sizes(self):
        rel = ASRelationships(self._graph())
        assert rel.cone_size(3) == 1
        assert rel.cone_size(2) == 13
        assert rel.cone_size(1) == 14

    def test_suspicious_link(self):
        rel = ASRelationships(self._graph())
        # 3's provider is 2, whose provider is 1; 3-1 with no direct
        # relationship is the suspicious pattern.
        assert rel.is_suspicious_link(3, 1)
        # 3-2 is a real relationship: not suspicious.
        assert not rel.is_suspicious_link(3, 2)

    def test_direct_relationship_not_suspicious(self):
        graph = self._graph()
        graph.add_edge(1, 3, Relationship.CUSTOMER)
        rel = ASRelationships(graph)
        assert not rel.is_suspicious_link(3, 1)


class TestBdrmapit:
    def test_recovers_misnumbered_borders(self, small_internet):
        """bdrmapit-lite's core capability: an interdomain interface
        numbered from the neighbour's space (prefix-AS != owner-AS)
        that shows up in enough traceroutes gets reassigned to its
        operating AS. (Like the real tool, it also makes mistakes on
        ambiguous egress borders — the paper's reason for caution.)"""
        mapper = IPToASMapper(small_internet)
        prober = Prober(small_internet)
        sources = small_internet.atlas_hosts[:12]
        dests = sorted(
            h.addr
            for h in small_internet.hosts.values()
            if h.responds_to_ping and not h.is_vantage_point
        )[::7][:12]
        corpus = [
            paris_traceroute(prober, src, dst)
            for src in sources
            for dst in dests
        ]
        tool = BdrmapitLite(mapper)
        overrides = tool.infer(corpus)

        # Recall over genuinely misnumbered, well-observed interfaces.
        seen_counts = {}
        for trace in corpus:
            for hop in trace.responsive_hops():
                seen_counts[hop] = seen_counts.get(hop, 0) + 1
        misnumbered = []
        for addr, count in seen_counts.items():
            if count < 3:
                continue
            owner = small_internet.router_of(addr)
            base = mapper.asn(addr)
            if owner is not None and base is not None and base != owner.asn:
                misnumbered.append(addr)
        if not misnumbered:
            pytest.skip("corpus exposed no misnumbered interfaces")
        recovered = sum(
            1
            for addr in misnumbered
            if overrides.get(addr)
            == small_internet.router_of(addr).asn
        )
        assert recovered / len(misnumbered) >= 0.5

    def test_needs_min_observations(self, small_internet):
        mapper = IPToASMapper(small_internet)
        lone = TracerouteResult(src="0.0.0.0", dst="0.0.0.1", hops=[])
        assert BdrmapitLite(mapper).infer([lone]) == {}
