"""Soundness tests for RR-atlas alias attribution (Q2).

A wrong attribution is worse than a missing one: intersecting too
early prepends hops the reverse path never visits. These tests verify
the registration rule directly against simulator ground truth.
"""

import pytest

from repro.core.rr_atlas import RRAtlas
from repro.core.atlas import TracerouteAtlas
from repro.net.packet import TracerouteResult
from repro.probing.prober import RRPingResult


class TestAttributionRule:
    def _atlas_with(self, hops, source="9.9.9.9"):
        atlas = TracerouteAtlas(source)
        atlas.add(
            TracerouteResult(
                src="1.1.1.1",
                dst=source,
                hops=list(hops) + [source],
                reached=True,
            )
        )
        return atlas

    def _result(self, dst, slots):
        return RRPingResult(
            dst=dst,
            vp="9.9.9.9",
            responded=True,
            slots=slots,
        )

    def test_probed_hop_own_stamp_registered(self):
        atlas = self._atlas_with(["10.0.0.1", "10.0.1.1"])
        rr_atlas = RRAtlas(atlas)
        # Probe hop 0; it stamps a loopback alias "10.9.9.9".
        result = self._result(
            "10.0.0.1", ["10.9.9.9", "10.0.5.1"]
        )
        # destination stamp not present -> not usable at all
        assert result.destination_stamp_index() is None

    def test_aligned_alias_gets_deep_position(self):
        atlas = self._atlas_with(["10.0.0.1", "10.0.1.1"])
        rr_atlas = RRAtlas(atlas)
        # Probe hop 0: slots = [fwd..., dst stamp, reverse...]; the
        # reverse hop 10.0.1.2 is the /30 peer of traceroute hop 1.
        result = self._result(
            "10.0.0.1", ["10.0.0.1", "10.0.1.2"]
        )
        rr_atlas._register(result, "1.1.1.1", 0, atlas.traceroutes["1.1.1.1"].hops)
        hit = rr_atlas.lookup("10.0.1.2")
        assert hit is not None
        assert hit.index == 1  # aligned to the deeper hop

    def test_unalignable_alias_not_registered(self):
        atlas = self._atlas_with(["10.0.0.1", "10.0.1.1"])
        rr_atlas = RRAtlas(atlas)
        # The reverse hop 172.20.0.9 aligns with nothing: registering
        # it at the probed position could corrupt later paths.
        result = self._result(
            "10.0.0.1", ["10.0.0.1", "172.20.0.9"]
        )
        rr_atlas._register(result, "1.1.1.1", 0, atlas.traceroutes["1.1.1.1"].hops)
        assert rr_atlas.lookup("172.20.0.9") is None

    def test_probed_address_registered_at_own_position(self):
        atlas = self._atlas_with(["10.0.0.1", "10.0.1.1"])
        rr_atlas = RRAtlas(atlas)
        result = self._result("10.0.1.1", ["10.0.1.1"])
        rr_atlas._register(result, "1.1.1.1", 1, atlas.traceroutes["1.1.1.1"].hops)
        hit = rr_atlas.lookup("10.0.1.1")
        assert hit is not None and hit.index == 1


class TestGroundTruthSoundness:
    def test_registered_positions_never_too_shallow(
        self, small_scenario
    ):
        """Ground truth check: an alias registered at position i must
        belong to a router at position >= i on the atlas traceroute
        (shallow attribution corrupts paths; deep only truncates)."""
        internet = small_scenario.internet
        source = small_scenario.sources()[2]
        rr_atlas = small_scenario.rr_atlas(source)
        atlas = small_scenario.bundle(source).atlas
        checked = violations = 0
        for addr in rr_atlas.known_aliases():
            owner = internet.router_of(addr)
            if owner is None:
                continue
            hit = rr_atlas.lookup(addr)
            trace = atlas.traceroutes[hit.vp]
            # Find the owner's true position(s) on the traceroute.
            positions = []
            for index, hop in enumerate(trace.hops):
                if hop is None:
                    continue
                hop_owner = internet.router_of(hop)
                if (
                    hop_owner is not None
                    and hop_owner.router_id == owner.router_id
                ):
                    positions.append(index)
            if not positions:
                continue
            checked += 1
            if hit.index < min(positions) - 1:
                violations += 1
        assert checked > 10
        assert violations / checked <= 0.05
