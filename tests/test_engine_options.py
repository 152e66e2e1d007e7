"""Tests for the Appendix A/E engine options."""

import pytest

from repro.core.result import HopTechnique, RevtrStatus
from repro.core.revtr import EngineConfig


class TestStalenessOption:
    def test_fresh_atlas_used_directly(self, small_scenario):
        source = small_scenario.sources()[0]
        engine = small_scenario.engine(
            source,
            "revtr2.0",
            config=EngineConfig(max_intersection_age=86_400.0),
        )
        dst = small_scenario.responsive_destinations(
            1, options_only=True
        )[0]
        result = engine.measure(dst)
        assert result.status in (
            RevtrStatus.COMPLETE,
            RevtrStatus.ABORTED_INTERDOMAIN,
            RevtrStatus.INCOMPLETE,
        )

    def test_stale_intersection_triggers_refresh(self, small_scenario):
        """With a tiny freshness bound, any intersection must be
        re-measured online: the engine issues extra traceroutes and the
        accepted intersection is younger than the bound."""
        source = small_scenario.sources()[1]
        clock = small_scenario.clock
        engine = small_scenario.engine(
            source,
            "revtr2.0",
            config=EngineConfig(max_intersection_age=1.0),
        )
        # Make every atlas entry older than the bound.
        clock.advance(3600.0)
        dests = small_scenario.responsive_destinations(
            15, options_only=True
        )
        refreshed = 0
        for dst in dests:
            result = engine.measure(dst)
            if result.intersection_vp is None:
                continue
            trace = engine.atlas.traceroutes.get(
                result.intersection_vp
            )
            if trace is None:
                continue
            if clock.now() - trace.timestamp <= 3600.0:
                refreshed += 1
        assert refreshed > 0

    def test_no_bound_accepts_old_atlas(self, small_scenario):
        source = small_scenario.sources()[2]
        engine = small_scenario.engine(
            source,
            "revtr2.0",
            config=EngineConfig(max_intersection_age=None),
        )
        before = small_scenario.online_counter.counts.copy()
        dst = small_scenario.responsive_destinations(
            2, options_only=True
        )[1]
        engine.measure(dst)

