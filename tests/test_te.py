"""Tests for the PEERING-like testbed and traffic engineering."""

from dataclasses import replace

import pytest

from repro.probing import Prober
from repro.te import PeeringTestbed, TrafficEngineer
from repro.te.peering import CONVERGENCE_SECONDS
from repro.topology.policy import AnnouncementSpec


@pytest.fixture()
def testbed_setup(small_scenario):
    """A fresh anycast deployment over two M-Lab site ASes."""
    internet = small_scenario.internet
    source = small_scenario.sources()[0]
    other_site = small_scenario.internet.hosts[
        small_scenario.sources()[1]
    ].asn
    testbed = PeeringTestbed(internet)
    deployment = testbed.deploy(source, [other_site])
    yield testbed, deployment, source
    testbed.withdraw(deployment)


class TestDeployment:
    def test_two_sites(self, testbed_setup, small_scenario):
        testbed, deployment, source = testbed_setup
        assert len(deployment.site_asns) == 2
        internet = small_scenario.internet
        prefix = deployment.prefix
        assert prefix in internet._announcements
        assert set(internet._anycast_anchors[prefix]) == set(
            deployment.site_asns
        )

    def test_catchments_partition_ases(
        self, testbed_setup, small_scenario
    ):
        testbed, deployment, _ = testbed_setup
        counts = {asn: 0 for asn in deployment.site_asns}
        for asn in small_scenario.internet.graph.asns():
            catchment = testbed.catchment_of(deployment, asn)
            if catchment is not None:
                counts[catchment] += 1
        assert all(count > 0 for count in counts.values()), counts

    def test_probes_land_in_the_catchment_after_each_announcement(
        self, small_scenario
    ):
        """Walks toward the deployment's prefix fill rows under the
        unicast announcement; after ``deploy``, ``reannounce`` (a site
        poisoned against a transit) and ``withdraw``, a probe from each
        AS lands in the AS the control plane sends it to: a row filled
        before an announcement change is never walked after it."""
        internet = small_scenario.internet
        source = small_scenario.sources()[0]
        origin = internet.hosts[source].asn
        other = internet.hosts[small_scenario.sources()[1]].asn
        probers = {}
        for host in sorted(internet.hosts.values(), key=lambda h: h.addr):
            if host.asn != origin:
                probers.setdefault(host.asn, host.addr)

        def landings():
            """``{AS: AS its probe lands in}``, skipping a path through
            an AS-level DBR violator (which may leave the route)."""
            landed = {}
            for asn, src in probers.items():
                path = internet.ground_truth_router_path(src, source)
                routers = [internet.routers[rid] for rid in path]
                if routers and not any(r.dbr_as_violator for r in routers):
                    landed[asn] = routers[-1].asn
            return landed

        def catchments(spec):
            return {
                asn: internet.policy.catchment(asn, spec) for asn in probers
            }

        def check(expected):
            landed = landings()
            assert len(landed) > 0.8 * len(probers)
            assert landed == {asn: expected[asn] for asn in landed}
            return landed

        unicast = catchments(AnnouncementSpec.single(origin))
        assert set(check(unicast).values()) == {origin}
        testbed = PeeringTestbed(internet)
        deployment = testbed.deploy(source, [other])
        try:
            deployed = catchments(deployment.spec())
            assert set(check(deployed).values()) == {origin, other}
            # Poison, on the other site's announcement, the transit a
            # probing AS of that site's catchment reaches it through.
            for asn in sorted(probers):
                route = internet.policy.route_of(asn, deployment.spec())
                if route.origin == other and len(route.path) >= 3:
                    transit = route.path[1]
                    poisoned = {other: frozenset({transit})}
                    moved = catchments(
                        replace(deployment, poisoned=poisoned).spec()
                    )
                    if moved != deployed:
                        break
            else:
                raise AssertionError("no poisoning moves a catchment")
            deployment.poisoned = poisoned
            testbed.reannounce(deployment)
            assert catchments(deployment.spec()) == moved
            check(moved)
        finally:
            testbed.withdraw(deployment)
        check(unicast)

    def test_withdraw_restores_unicast(self, small_scenario):
        internet = small_scenario.internet
        source = small_scenario.sources()[0]
        other = internet.hosts[small_scenario.sources()[1]].asn
        testbed = PeeringTestbed(internet)
        deployment = testbed.deploy(source, [other])
        prefix = deployment.prefix
        testbed.withdraw(deployment)
        assert prefix not in internet._announcements


class TestEngineering:
    def test_poison_shifts_catchment(
        self, testbed_setup, small_scenario
    ):
        testbed, deployment, source = testbed_setup
        internet = small_scenario.internet
        # Find an AS whose path to the anycast goes through some
        # transit we can poison.
        spec = deployment.spec()
        target_transit = None
        for asn in internet.graph.asns():
            route = internet.policy.route_of(asn, spec)
            if route is not None and len(route.path) >= 3:
                target_transit = route.path[1]
                break
        if target_transit is None or target_transit in deployment.site_asns:
            pytest.skip("no poisonable transit found")
        before = {
            asn: testbed.catchment_of(deployment, asn)
            for asn in internet.graph.asns()
        }
        deployment.poisoned = {
            site: frozenset({target_transit})
            for site in deployment.site_asns
        }
        testbed.reannounce(deployment)
        assert (
            testbed.catchment_of(deployment, target_transit) is None
        )
        after = {
            asn: testbed.catchment_of(deployment, asn)
            for asn in internet.graph.asns()
        }
        assert before != after

    def test_reannounce_charges_convergence(
        self, testbed_setup, small_scenario
    ):
        testbed, deployment, _ = testbed_setup
        clock = small_scenario.clock
        before = clock.now()
        testbed.reannounce(deployment, clock=clock)
        assert clock.now() - before == pytest.approx(
            CONVERGENCE_SECONDS
        )

    def test_poisoning_survives_a_no_export_round(
        self, testbed_setup, small_scenario
    ):
        """The deployment holds the per-site poisoning, so a later
        re-announcement (here a no-export round) still carries it."""
        testbed, deployment, _ = testbed_setup
        internet = small_scenario.internet
        poisoned_site, other_site = deployment.site_asns
        transit = next(
            asn
            for asn in internet.graph.asns()
            if asn not in deployment.site_asns
        )
        deployment.poisoned = {poisoned_site: frozenset({transit})}
        testbed.reannounce(deployment)
        # no_export measures nothing: it needs no engine, and a prober
        # of its own keeps the shared scenario's clock where it was.
        engineer = TrafficEngineer(
            testbed, None, Prober(internet), small_scenario.ip2as
        )
        engineer.no_export(deployment, other_site, transit)
        spec = internet._announcements[deployment.prefix]
        poisoned_by_site = {
            origin.asn: origin.poisoned for origin in spec.origins
        }
        assert poisoned_by_site == {
            poisoned_site: frozenset({transit}),
            other_site: frozenset(),
        }
        assert (other_site, transit) in spec.no_export

    def test_measured_catchment_matches_control_plane(self):
        """Reverse traceroutes see the same catchment BGP computes.

        Uses a private scenario: the anycast round must start from a
        clean measurement state (no unicast-era caches or atlases).
        """
        import random

        from repro.core.revtr import EngineConfig
        from repro.experiments import Scenario
        from repro.topology import TopologyConfig

        scenario = Scenario(
            config=TopologyConfig.small(seed=8), seed=8, atlas_size=15
        )
        internet = scenario.internet
        source = scenario.sources()[0]
        other = internet.hosts[scenario.sources()[1]].asn
        testbed = PeeringTestbed(internet)
        deployment = testbed.deploy(source, [other])
        # Build the source's atlas under the anycast announcement.
        bundle = scenario.bundle(source)
        bundle.atlas.build(
            scenario.background_prober,
            scenario.atlas_vp_addrs,
            random.Random(3),
        )
        engine = scenario.engine(source, "revtr2.0")
        engineer = TrafficEngineer(
            testbed,
            engine,
            scenario.online_prober,
            scenario.ip2as,
        )
        dests = scenario.responsive_destinations(
            20, options_only=True
        )
        report = engineer.measure_round(deployment, dests)
        small_scenario = scenario  # for the assertions below
        matched, measured = 0, 0
        for dst, site in report.site_of.items():
            if site is None:
                continue
            measured += 1
            truth = testbed.catchment_of(
                deployment, small_scenario.internet.hosts[dst].asn
            )
            if site == truth:
                matched += 1
        assert measured >= 3
        assert matched / measured >= 0.7
