"""Atlas lifecycle over virtual days: refresh, usefulness, staleness,
and the source registry's daily cycle."""

import random

import pytest

from repro.core.atlas import TracerouteAtlas
from repro.probing import Prober
from repro.service import SourceRegistry


@pytest.fixture()
def lifecycle(small_internet):
    prober = Prober(small_internet)
    source = small_internet.mlab_hosts[2]
    atlas = TracerouteAtlas(source, max_size=10, staleness=86_400.0)
    atlas.build(prober, small_internet.atlas_hosts, random.Random(7))
    return small_internet, prober, source, atlas


class TestDailyCycle:
    def test_timestamps_follow_clock(self, lifecycle):
        internet, prober, source, atlas = lifecycle
        start = prober.clock.now()
        for trace in atlas.traceroutes.values():
            assert trace.timestamp <= start

    def test_entries_become_stale_after_a_day(self, lifecycle):
        internet, prober, source, atlas = lifecycle
        hop = atlas.all_hops()[0]
        hit = atlas.lookup(hop)
        now = prober.clock.now()
        assert not atlas.is_stale(hit, now)
        assert atlas.is_stale(hit, now + 86_401.0)

    def test_refresh_renews_timestamps(self, lifecycle):
        internet, prober, source, atlas = lifecycle
        prober.clock.advance(86_400.0)
        for vp in list(atlas.traceroutes)[:3]:
            atlas.mark_useful(vp)
        kept = set()
        for vp in list(atlas.traceroutes)[:3]:
            kept.add(vp)
        atlas.refresh(
            prober, internet.atlas_hosts, random.Random(8)
        )
        now = prober.clock.now()
        for vp in kept:
            if vp in atlas.traceroutes:
                hit_time = atlas.traceroutes[vp].timestamp
                assert now - hit_time < 3600.0

    def test_multi_day_refresh_keeps_size(self, lifecycle):
        internet, prober, source, atlas = lifecycle
        for day in range(3):
            prober.clock.advance(86_400.0)
            atlas.refresh(
                prober, internet.atlas_hosts, random.Random(day)
            )
            assert len(atlas) <= 10
            assert len(atlas) >= 5


class TestRegistryRefresh:
    def test_refresh_via_registry(self, small_internet):
        prober = Prober(small_internet)
        registry = SourceRegistry(
            small_internet,
            prober,
            small_internet.atlas_hosts,
            small_internet.mlab_hosts,
            atlas_size=8,
            seed=3,
        )
        source = small_internet.mlab_hosts[3]
        registry.register(source)
        prober.clock.advance(86_400.0)
        replaced = registry.refresh_atlas(source)
        assert replaced >= 0
        assert len(registry.sources[source].atlas) >= 4

    def test_refresh_unknown_source(self, small_internet):
        prober = Prober(small_internet)
        registry = SourceRegistry(
            small_internet,
            prober,
            small_internet.atlas_hosts,
            small_internet.mlab_hosts,
        )
        with pytest.raises(KeyError):
            registry.refresh_atlas("203.0.113.9")
