"""Ground-truth tests for the timestamp adjacency technique (Q4)."""

import pytest

from repro.core.result import HopTechnique, RevtrStatus
from repro.core.revtr import EngineConfig
from repro.experiments import Scenario
from repro.experiments.exp_comparison import ground_truth_adjacencies
from repro.topology import TopologyConfig


@pytest.fixture(scope="module")
def ts_scenario():
    config = TopologyConfig.small(seed=22)
    # Make timestamp support common so the technique fires often.
    config.router_ts_support = 0.9
    return Scenario(config=config, seed=22, atlas_size=10)


class TestTimestampStep:
    def test_confirmed_adjacency_is_on_true_reverse_path(
        self, ts_scenario
    ):
        """Every TS-confirmed hop must belong to a router on the
        ground-truth reverse path — the tsprespec ordering guarantees
        it (Fig. 1e)."""
        scenario = ts_scenario
        internet = scenario.internet
        source = scenario.sources()[0]
        from repro.core.revtr import RevtrEngine
        from repro.core.atlas import TracerouteAtlas
        import random

        atlas = TracerouteAtlas(source, max_size=5)
        atlas.build(
            scenario.background_prober,
            scenario.atlas_vp_addrs,
            random.Random(1),
        )
        engine = RevtrEngine(
            prober=scenario.online_prober,
            source=source,
            atlas=atlas,
            selector=scenario.selector("revtr2.0"),
            ip2as=scenario.ip2as,
            relationships=scenario.relationships,
            config=EngineConfig(use_timestamp=True),
            resolver=scenario.resolver,
            adjacency=ground_truth_adjacencies(internet),
            spoofers=scenario.spoofer_addrs,
        )
        ts_hops = 0
        for dst in scenario.responsive_destinations(
            40, options_only=True
        ):
            result = engine.measure(dst)
            if not any(
                h.technique is HopTechnique.TIMESTAMP
                for h in result.hops
            ):
                continue
            truth = set(
                internet.ground_truth_router_path(dst, source)
            )
            for hop in result.hops:
                if hop.technique is not HopTechnique.TIMESTAMP:
                    continue
                owner = internet.router_of(hop.addr)
                if owner is None:
                    continue
                ts_hops += 1
                assert owner.router_id in truth, (
                    f"TS hop {hop.addr} not on true reverse path"
                )
        if ts_hops == 0:
            pytest.skip("no timestamp-confirmed hops in this sample")

    def test_ts_probe_counts_appear(self, ts_scenario):
        scenario = ts_scenario
        source = scenario.sources()[1]
        engine = scenario.engine(source, "revtr2.0+TS")
        total_ts = 0
        for dst in scenario.responsive_destinations(
            20, options_only=True
        ):
            result = engine.measure(dst)
            total_ts += result.probe_counts.get("ts", 0)
        assert total_ts > 0

    def test_unsupported_routers_never_stamp(self, ts_scenario):
        """A tsprespec probe to a non-supporting router yields no
        timestamps at all."""
        internet = ts_scenario.internet
        prober = ts_scenario.online_prober
        source = ts_scenario.sources()[0]
        target = next(
            (
                r
                for r in internet.routers.values()
                if not r.supports_timestamp
                and r.responds_to_options
                and r.loopback
            ),
            None,
        )
        if target is None:
            pytest.skip("all routers support timestamps at this seed")
        result = prober.ts_ping(
            source,
            target.loopback,
            [target.loopback, "203.0.113.1"],
        )
        assert not result.hop_stamped
