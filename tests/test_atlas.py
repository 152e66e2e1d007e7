"""Tests for the traceroute atlas (Q1) and the RR atlas (Q2)."""

import random

import pytest

from repro.core.atlas import TracerouteAtlas
from repro.core.rr_atlas import RRAtlas
from repro.net.packet import TracerouteResult
from repro.probing import Prober, paris_traceroute


def make_trace(src, dst, hops, ts=0.0):
    return TracerouteResult(
        src=src, dst=dst, hops=hops, reached=True, timestamp=ts
    )


class TestAtlasIndex:
    def test_add_and_lookup(self):
        atlas = TracerouteAtlas("9.9.9.9")
        atlas.add(make_trace("1.1.1.1", "9.9.9.9", ["a", "b", "9.9.9.9"]))
        hit = atlas.lookup("b")
        assert hit is not None
        assert hit.vp == "1.1.1.1"
        assert hit.index == 1
        assert atlas.suffix(hit) == ["9.9.9.9"]

    def test_wrong_destination_rejected(self):
        atlas = TracerouteAtlas("9.9.9.9")
        with pytest.raises(ValueError):
            atlas.add(make_trace("1.1.1.1", "8.8.8.8", ["a"]))

    def test_none_hops_not_indexed(self):
        atlas = TracerouteAtlas("9.9.9.9")
        atlas.add(
            make_trace("1.1.1.1", "9.9.9.9", ["a", None, "9.9.9.9"])
        )
        assert atlas.lookup(None) is None
        assert "a" in atlas

    def test_replace_reindexes(self):
        atlas = TracerouteAtlas("9.9.9.9")
        atlas.add(make_trace("1.1.1.1", "9.9.9.9", ["a", "9.9.9.9"]))
        atlas.add(make_trace("1.1.1.1", "9.9.9.9", ["b", "9.9.9.9"]))
        assert atlas.lookup("a") is None
        assert atlas.lookup("b") is not None
        assert len(atlas) == 1

    def test_freshest_hit_wins(self):
        atlas = TracerouteAtlas("9.9.9.9")
        atlas.add(make_trace("1.1.1.1", "9.9.9.9", ["x", "9.9.9.9"], ts=1))
        atlas.add(make_trace("2.2.2.2", "9.9.9.9", ["x", "9.9.9.9"], ts=5))
        assert atlas.lookup("x").vp == "2.2.2.2"

    def test_staleness(self):
        atlas = TracerouteAtlas("9.9.9.9", staleness=100)
        atlas.add(make_trace("1.1.1.1", "9.9.9.9", ["a", "9.9.9.9"], ts=0))
        hit = atlas.lookup("a")
        assert not atlas.is_stale(hit, now=50)
        assert atlas.is_stale(hit, now=101)

    def test_remove(self):
        atlas = TracerouteAtlas("9.9.9.9")
        atlas.add(make_trace("1.1.1.1", "9.9.9.9", ["a", "9.9.9.9"]))
        atlas.remove("1.1.1.1")
        assert atlas.lookup("a") is None
        assert len(atlas) == 0


class TestAtlasRefresh:
    def test_useful_traceroutes_survive_refresh(self, small_internet):
        prober = Prober(small_internet)
        source = small_internet.mlab_hosts[0]
        atlas = TracerouteAtlas(source, max_size=6)
        rng = random.Random(1)
        atlas.build(prober, small_internet.atlas_hosts, rng)
        assert len(atlas) >= 4
        kept_vp = next(iter(atlas.traceroutes))
        atlas.mark_useful(kept_vp)
        atlas.refresh(prober, small_internet.atlas_hosts, rng)
        assert kept_vp in atlas.traceroutes

    def test_unused_traceroutes_replaced(self, small_internet):
        prober = Prober(small_internet)
        source = small_internet.mlab_hosts[0]
        atlas = TracerouteAtlas(source, max_size=5)
        rng = random.Random(2)
        atlas.build(prober, small_internet.atlas_hosts, rng)
        before = set(atlas.traceroutes)
        replaced = atlas.refresh(
            prober, small_internet.atlas_hosts, rng
        )
        after = set(atlas.traceroutes)
        # Nothing was marked useful: the whole atlas turns over (as
        # far as the candidate pool allows).
        assert replaced > 0 or before == after


class TestAtlasBuildOverSim:
    def test_traces_end_at_source(self, small_internet):
        prober = Prober(small_internet)
        source = small_internet.mlab_hosts[0]
        atlas = TracerouteAtlas(source, max_size=8)
        atlas.build(prober, small_internet.atlas_hosts, random.Random(0))
        for trace in atlas.traceroutes.values():
            if trace.reached:
                assert trace.hops[-1] == source


class TestRRAtlas:
    def test_registers_reverse_aliases(self, small_scenario):
        source = small_scenario.sources()[0]
        rr_atlas = small_scenario.rr_atlas(source)
        assert len(rr_atlas) > 0
        atlas = small_scenario.bundle(source).atlas
        # Every registered alias points to a live traceroute position.
        for addr in rr_atlas.known_aliases():
            hit = rr_atlas.lookup(addr)
            assert hit is not None
            trace = atlas.traceroutes[hit.vp]
            assert 0 <= hit.index < len(trace.hops)

    def test_aliases_extend_beyond_traceroute_hops(self, small_scenario):
        """The whole point of Q2: the RR atlas registers addresses that
        are NOT in the traceroute atlas (egress-side aliases)."""
        source = small_scenario.sources()[0]
        rr_atlas = small_scenario.rr_atlas(source)
        atlas = small_scenario.bundle(source).atlas
        extra = [
            addr
            for addr in rr_atlas.known_aliases()
            if atlas.lookup(addr) is None
        ]
        assert extra, "RR atlas added no new intersection aliases"

    def test_alias_positions_are_sound(self, small_scenario):
        """An alias attributed to position i must belong to a router at
        position >= i on the ground-truth path (conservative rule)."""
        internet = small_scenario.internet
        source = small_scenario.sources()[0]
        rr_atlas = small_scenario.rr_atlas(source)
        atlas = small_scenario.bundle(source).atlas
        checked = 0
        for addr in rr_atlas.known_aliases():
            hit = rr_atlas.lookup(addr)
            trace = atlas.traceroutes[hit.vp]
            owner = internet.router_of(addr)
            if owner is None:
                continue
            hop_at = trace.hops[hit.index]
            if hop_at is None:
                continue
            owner_at = internet.router_of(hop_at)
            if owner_at is None:
                continue
            checked += 1
        assert checked > 0
