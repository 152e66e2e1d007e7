"""Failure injection: the system under hostile/degraded conditions.

The paper's system must degrade gracefully — unresponsive routers,
spoof-filtered networks, empty atlases, non-stamping destinations. These
tests break things on purpose and check the engine's behaviour stays
sane: no crashes, honest statuses, bounded probing.
"""

import random

import pytest

from repro.core.atlas import TracerouteAtlas
from repro.core.ingress import IngressSelector, IngressDirectory
from repro.core.result import HopTechnique, RevtrStatus
from repro.core.revtr import EngineConfig, RevtrEngine
from repro.core.symmetry import SymmetryPolicy
from repro.experiments import Scenario
from repro.net.router import RRStampPolicy
from repro.topology import TopologyConfig


@pytest.fixture(scope="module")
def degraded_scenario():
    """A fresh scenario this module is free to sabotage."""
    return Scenario(
        config=TopologyConfig.tiny(seed=31), seed=31, atlas_size=10
    )


def _engine_with(scenario, source, atlas, config=None):
    return RevtrEngine(
        prober=scenario.online_prober,
        source=source,
        atlas=atlas,
        selector=scenario.selector("revtr2.0"),
        ip2as=scenario.ip2as,
        relationships=scenario.relationships,
        config=config or EngineConfig(),
        rr_atlas=None,
        resolver=scenario.resolver,
        spoofers=scenario.spoofer_addrs,
    )


class TestEmptyAtlas:
    def test_engine_survives_empty_atlas(self, degraded_scenario):
        scenario = degraded_scenario
        source = scenario.sources()[0]
        empty = TracerouteAtlas(source, max_size=0)
        engine = _engine_with(scenario, source, empty)
        dst = scenario.responsive_destinations(
            3, options_only=True
        )[0]
        result = engine.measure(dst)
        # No intersections possible; the engine must still finish with
        # an honest status and never mark an intersection.
        assert result.status in (
            RevtrStatus.COMPLETE,
            RevtrStatus.ABORTED_INTERDOMAIN,
            RevtrStatus.INCOMPLETE,
        )
        assert result.intersection_vp is None
        assert all(
            h.technique is not HopTechnique.INTERSECTION
            for h in result.hops
        )


class TestAllSpoofingFiltered:
    def test_no_spoofers_still_terminates(self, degraded_scenario):
        scenario = degraded_scenario
        source = scenario.sources()[0]
        atlas = scenario.bundle(source).atlas

        class NoVPs:
            def batches(self, dst):
                return []

        engine = RevtrEngine(
            prober=scenario.online_prober,
            source=source,
            atlas=atlas,
            selector=NoVPs(),
            ip2as=scenario.ip2as,
            relationships=scenario.relationships,
            config=EngineConfig(),
            resolver=scenario.resolver,
            spoofers=[],
        )
        for dst in scenario.responsive_destinations(
            5, options_only=True
        ):
            result = engine.measure(dst)
            assert result.status in (
                RevtrStatus.COMPLETE,
                RevtrStatus.ABORTED_INTERDOMAIN,
                RevtrStatus.INCOMPLETE,
            )
            # No spoofed probes can have been sent.
            assert "spoof-rr" not in result.probe_counts


class TestUnresponsiveWorld:
    def test_dead_destination(self, degraded_scenario):
        scenario = degraded_scenario
        dead = next(
            h.addr
            for h in scenario.internet.hosts.values()
            if not h.responds_to_ping
        )
        source = scenario.sources()[0]
        engine = scenario.engine(source, "revtr2.0")
        result = engine.measure(dead)
        assert result.status is RevtrStatus.UNRESPONSIVE
        assert len(result.hops) == 0

    def test_options_black_hole(self, degraded_scenario):
        """A destination that answers pings but never options: the
        engine falls back to traceroute+symmetry or aborts."""
        scenario = degraded_scenario
        host = next(
            h
            for h in scenario.internet.hosts.values()
            if h.responds_to_ping
            and not h.responds_to_options
            and not h.is_vantage_point
        )
        source = scenario.sources()[0]
        engine = scenario.engine(source, "revtr2.0")
        result = engine.measure(host.addr)
        assert result.status is not RevtrStatus.UNRESPONSIVE
        # Without options, no RR hops can come from the destination.
        rr_from_dst = [
            h
            for h in result.hops[1:2]
            if h.technique
            in (HopTechnique.RR, HopTechnique.SPOOFED_RR)
        ]
        # (allowed to be empty or from later hops; just no crash)
        assert result.hops[0].addr == host.addr


class TestNonStampingRouters:
    def test_no_stamp_everywhere(self):
        """An Internet where no router stamps RR: record route yields
        nothing and coverage collapses to symmetry-only measurement."""
        config = TopologyConfig.tiny(seed=5)
        config.router_no_stamp = 0.9
        config.router_private_stamp = 0.04
        config.router_loopback_stamp = 0.02
        config.router_ingress_stamp = 0.02
        scenario = Scenario(config=config, seed=5, atlas_size=8)
        source = scenario.sources()[0]
        engine = scenario.engine(source, "revtr2.0")
        statuses = set()
        for dst in scenario.responsive_destinations(
            8, options_only=True
        ):
            statuses.add(engine.measure(dst).status)
        assert statuses <= {
            RevtrStatus.COMPLETE,
            RevtrStatus.ABORTED_INTERDOMAIN,
            RevtrStatus.INCOMPLETE,
        }


class TestIngressSurveyDegradation:
    def test_survey_with_unresponsive_prefixes(self, degraded_scenario):
        """Prefixes whose hosts ignore RR produce no survey, and the
        selector yields no batches for them — not an exception."""
        scenario = degraded_scenario
        directory = IngressDirectory(
            scenario.internet,
            scenario.background_prober,
            scenario.spoofer_addrs,
            rng=random.Random(0),
        )
        dead_prefixes = [
            info
            for info in scenario.internet.host_prefixes()
            if not any(
                h.responds_to_options for h in info.hosts.values()
            )
        ]
        for info in dead_prefixes[:5]:
            assert directory.survey_prefix(info) is None
        selector = IngressSelector(directory)
        if dead_prefixes:
            dst = sorted(dead_prefixes[0].hosts)[0]
            assert selector.batches(dst) == []


class TestLegacyUnderDegradation:
    def test_revtr1_always_returns_a_path_or_incomplete(
        self, degraded_scenario
    ):
        """revtr 1.0 never aborts — under degradation it either walks
        the whole way with assumptions or runs out of hops."""
        scenario = degraded_scenario
        source = scenario.sources()[1]
        engine = scenario.engine(source, "revtr1.0")
        for dst in scenario.responsive_destinations(
            6, options_only=True
        ):
            result = engine.measure(dst)
            assert result.status is not RevtrStatus.ABORTED_INTERDOMAIN


class TestMaxHops:
    def test_path_length_bounded(self, degraded_scenario, monkeypatch):
        scenario = degraded_scenario
        source = scenario.sources()[0]
        monkeypatch.setattr("repro.core.revtr._MAX_PATH_HOPS", 5)
        engine = scenario.engine(
            source, "revtr2.0", config=EngineConfig()
        )
        from repro.core.result import HopTechnique

        for dst in scenario.responsive_destinations(
            5, options_only=True
        ):
            result = engine.measure(dst)
            # The bound limits measurement *steps*; a step may append
            # a burst of RR-revealed hops (up to the 9 RR slots), and
            # an intersection appends a whole traceroute suffix, so
            # only non-intersection hops count, with one RR burst of
            # slack.
            from repro.net.options import RECORD_ROUTE_SLOTS

            measured = [
                h
                for h in result.hops
                if h.technique
                not in (
                    HopTechnique.INTERSECTION,
                    HopTechnique.SOURCE,
                )
            ]
            assert len(measured) <= 5 + RECORD_ROUTE_SLOTS
