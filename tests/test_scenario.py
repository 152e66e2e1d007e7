"""Tests for the Scenario orchestrator and end-to-end determinism."""

import pytest

from repro.core.result import RevtrStatus
from repro.experiments import Scenario
from repro.experiments.common import VARIANTS
from repro.topology import TopologyConfig


class TestScenarioWiring:
    def test_engine_caching(self, small_scenario):
        source = small_scenario.sources()[0]
        first = small_scenario.engine(source, "revtr2.0")
        second = small_scenario.engine(source, "revtr2.0")
        assert first is second

    def test_engine_with_custom_config_not_cached(
        self, small_scenario
    ):
        from repro.core.revtr import EngineConfig

        source = small_scenario.sources()[0]
        cached = small_scenario.engine(source, "revtr2.0")
        custom = small_scenario.engine(
            source, "revtr2.0", config=EngineConfig()
        )
        assert custom is not cached

    def test_all_variants_resolvable(self, small_scenario):
        for variant in VARIANTS:
            config = small_scenario.engine_config(variant)
            assert config is not None

    def test_unknown_variant_rejected(self, small_scenario):
        with pytest.raises(ValueError):
            small_scenario.engine_config("revtr9.9")

    def test_sources_are_mlab_hosts(self, small_scenario):
        assert set(small_scenario.sources()) <= set(
            small_scenario.internet.mlab_hosts
        )

    def test_destinations_exclude_vantage_points(
        self, small_scenario
    ):
        for addr in small_scenario.responsive_destinations(50):
            assert not small_scenario.internet.hosts[
                addr
            ].is_vantage_point

    def test_spoofers_subset_of_mlab(self, small_scenario):
        assert set(small_scenario.spoofer_addrs) <= set(
            small_scenario.mlab_addrs
        )


class TestEndToEndDeterminism:
    def test_identical_scenarios_identical_measurements(self):
        """Two scenarios built from the same seed must produce
        bit-identical reverse traceroutes — the property every
        experiment's reproducibility rests on."""
        outputs = []
        for _ in range(2):
            scenario = Scenario(
                config=TopologyConfig.tiny(seed=77),
                seed=77,
                atlas_size=8,
            )
            source = scenario.sources()[0]
            engine = scenario.engine(source, "revtr2.0")
            run = []
            for dst in scenario.responsive_destinations(
                8, options_only=True
            ):
                result = engine.measure(dst)
                run.append(
                    (
                        result.dst,
                        result.status.value,
                        tuple(result.addresses()),
                        tuple(sorted(result.probe_counts.items())),
                    )
                )
            outputs.append(run)
        assert outputs[0] == outputs[1]

    def test_different_seeds_differ(self):
        digests = []
        for seed in (101, 102):
            scenario = Scenario(
                config=TopologyConfig.tiny(seed=seed),
                seed=seed,
                atlas_size=8,
            )
            digests.append(tuple(sorted(scenario.internet.hosts)))
        assert digests[0] != digests[1]


class TestExperimentHelpers:
    def test_completeness_experiment_smoke(self, monkeypatch):
        from repro.experiments import exp_completeness

        monkeypatch.setattr(exp_completeness, "N_DESTINATIONS", 30)
        monkeypatch.setattr(exp_completeness, "N_SOURCES", 2)
        scenario = Scenario(
            config=TopologyConfig.tiny(seed=55), seed=55, atlas_size=8
        )
        result = exp_completeness.run(scenario)
        assert 0.0 < result.overall_fraction() <= 1.0
        assert result.worst_fraction() <= result.median_fraction()
        assert exp_completeness.format_report(result)

    def test_spoofing_gain_smoke(self, tiny_internet):
        from repro.experiments import exp_rr_responsiveness as m

        result = m.measure_spoofing_gain(tiny_internet, seed=1)
        assert result.pairs > 0
        assert result.spoofed_fraction() >= result.direct_fraction()
        assert m.format_spoofing_gain(result)
