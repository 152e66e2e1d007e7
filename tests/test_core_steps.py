"""Tests for adjacency DB, symmetry stepper, and suspicious-link flags."""

import random

import pytest

from repro.asmap import ASRelationships, IPToASMapper
from repro.core.adjacency import AdjacencyDatabase
from repro.core.flags import STAR, flag_suspicious_links
from repro.core.symmetry import LinkType, SymmetryStepper
from repro.net.packet import TracerouteResult
from repro.probing import Prober


def make_trace(hops):
    return TracerouteResult(
        src="0.0.0.1", dst="0.0.0.2", hops=hops, reached=True
    )


class TestAdjacency:
    def test_links_recorded_both_ways(self):
        db = AdjacencyDatabase()
        db.add_traceroute(make_trace(["a", "b", "c"]))
        assert db.neighbors("b") == ["a", "c"]
        assert db.neighbors("a") == ["b"]

    def test_stars_break_adjacency(self):
        db = AdjacencyDatabase()
        db.add_traceroute(make_trace(["a", None, "c"]))
        # a and c are consecutive *responsive* hops; the paper's link
        # extraction joins across stars, and so do we.
        assert "c" in db.neighbors("a")

    def test_aliases_merge_neighbor_sets(self):
        db = AdjacencyDatabase()
        db.add_traceroute(make_trace(["a", "b"]))
        db.add_traceroute(make_trace(["a2", "c"]))
        assert db.neighbors("a", aliases=["a2"]) == ["b", "c"]

    def test_limit(self):
        db = AdjacencyDatabase()
        for i in range(10):
            db.add_traceroute(make_trace(["hub", f"leaf{i}"]))
        assert len(db.neighbors("hub", limit=4)) == 4

    def test_ark_style_build(self, small_internet):
        db = AdjacencyDatabase()
        prober = Prober(small_internet)
        db.build_ark_style(
            prober,
            small_internet.atlas_hosts[:5],
            small_internet.mlab_hosts[:3],
            n_traceroutes=10,
            rng=random.Random(0),
        )
        assert len(db) > 0
        assert db.traceroutes_ingested <= 10


class TestSymmetry:
    def test_penultimate_and_intra_classification(self, small_scenario):
        internet = small_scenario.internet
        prober = small_scenario.online_prober
        source = small_scenario.sources()[0]
        ip2as = small_scenario.ip2as
        stepper = SymmetryStepper(prober, ip2as, source)
        # Current hop: a responsive loopback a few hops out.
        dst = small_scenario.responsive_destinations(1)[0]
        truth = internet.ground_truth_router_path(source, dst)
        target_router = internet.routers[truth[-1]]
        outcome = stepper.step(target_router.loopback)
        if outcome.penultimate is None:
            pytest.skip("traceroute did not yield a penultimate hop")
        assert outcome.link in (
            LinkType.INTRA,
            LinkType.INTER,
            LinkType.UNKNOWN,
        )
        # The proposed hop is on the true forward path to the target.
        path_routers = set(
            internet.ground_truth_router_path(
                source, target_router.loopback
            )
        )
        owner = internet.router_of(outcome.penultimate)
        assert owner is not None and owner.router_id in path_routers

    def test_adjacent_to_source(self, small_scenario):
        internet = small_scenario.internet
        prober = small_scenario.online_prober
        source = small_scenario.sources()[0]
        stepper = SymmetryStepper(prober, small_scenario.ip2as, source)
        edge_router = internet.routers[
            internet.hosts[source].edge_router_id
        ]
        outcome = stepper.step(edge_router.loopback)
        assert outcome.adjacent_to_source

    def test_classify_link(self, small_scenario):
        stepper = SymmetryStepper(
            small_scenario.online_prober,
            small_scenario.ip2as,
            small_scenario.sources()[0],
        )
        hosts = list(small_scenario.internet.hosts.values())
        a = hosts[0]
        same = next(
            h for h in hosts if h.asn == a.asn and h.addr != a.addr
        )
        other = next(h for h in hosts if h.asn != a.asn)
        assert stepper.classify_link(a.addr, same.addr) is LinkType.INTRA
        assert stepper.classify_link(a.addr, other.addr) is LinkType.INTER
        assert (
            stepper.classify_link(a.addr, "10.0.0.1") is LinkType.UNKNOWN
        )

    def test_traceroute_cached(self, small_scenario):
        from repro.core.cache import MeasurementCache

        prober = small_scenario.online_prober
        cache = MeasurementCache(prober.clock)
        source = small_scenario.sources()[0]
        stepper = SymmetryStepper(
            prober, small_scenario.ip2as, source, cache=cache
        )
        dst = small_scenario.responsive_destinations(1)[0]
        stepper.step(dst)
        before = prober.counter.total()
        stepper.step(dst)
        assert prober.counter.total() == before  # all cached


class TestFlags:
    def test_private_hop_inserts_star(self, small_scenario):
        ip2as = small_scenario.ip2as
        rel = small_scenario.relationships
        hosts = list(small_scenario.internet.hosts.values())
        a = next(h for h in hosts if h.asn != hosts[0].asn)
        path = [hosts[0].addr, "10.0.0.1", a.addr]
        flagged = flag_suspicious_links(path, ip2as, rel)
        assert STAR in flagged
        assert flagged == [hosts[0].asn, STAR, a.asn]

    def test_clean_path_unflagged(self, small_scenario):
        ip2as = small_scenario.ip2as
        rel = small_scenario.relationships
        internet = small_scenario.internet
        # A customer-provider pair: legitimate adjacency.
        graph = internet.graph
        stub = next(
            asn
            for asn, node in graph.nodes.items()
            if node.providers()
        )
        provider = graph.nodes[stub].providers()[0]
        stub_host = next(
            h for h in internet.hosts.values() if h.asn == stub
        )
        prov_host = next(
            (h for h in internet.hosts.values() if h.asn == provider),
            None,
        )
        if prov_host is None:
            pytest.skip("provider has no host")
        flagged = flag_suspicious_links(
            [stub_host.addr, prov_host.addr], ip2as, rel
        )
        assert STAR not in flagged

    def test_skipped_as_is_suspicious(self, small_scenario):
        """A small stub directly followed by its provider's provider
        (with no relationship) gets a star."""
        internet = small_scenario.internet
        graph = internet.graph
        rel = small_scenario.relationships
        for asn, node in graph.nodes.items():
            if not rel.is_small(asn):
                continue
            for provider in node.providers():
                for grand in graph.nodes[provider].providers():
                    if graph.relationship(asn, grand) is not None:
                        continue
                    stub_host = next(
                        (
                            h
                            for h in internet.hosts.values()
                            if h.asn == asn
                        ),
                        None,
                    )
                    grand_host = next(
                        (
                            h
                            for h in internet.hosts.values()
                            if h.asn == grand
                        ),
                        None,
                    )
                    if stub_host is None or grand_host is None:
                        continue
                    flagged = flag_suspicious_links(
                        [stub_host.addr, grand_host.addr],
                        small_scenario.ip2as,
                        rel,
                    )
                    assert STAR in flagged
                    return
        pytest.skip("no small-AS/grandprovider pair with hosts")

    def test_leading_unmappable_not_starred(self, small_scenario):
        host = next(iter(small_scenario.internet.hosts.values()))
        flagged = flag_suspicious_links(
            ["10.0.0.1", host.addr],
            small_scenario.ip2as,
            small_scenario.relationships,
        )
        assert flagged == [host.asn]
