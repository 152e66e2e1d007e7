"""Tests for result types, probe-result parsing, config validation,
and the vantage-point pool."""

import pytest

from repro.asmap.ip2as import IPToASMapper
from repro.asmap.relationships import ASRelationships
from repro.core.atlas import TracerouteAtlas
from repro.core.result import (
    HopTechnique,
    ReverseHop,
    ReverseTracerouteResult,
    RevtrStatus,
)
from repro.core.revtr import RevtrEngine
from repro.probing.prober import Prober, RRPingResult
from repro.probing.vantage import VantagePointPool
from repro.topology.config import TopologyConfig


def _result_with(techniques):
    hops = [
        ReverseHop(f"10.0.{i}.1", technique)
        for i, technique in enumerate(techniques)
    ]
    return ReverseTracerouteResult(
        src="9.9.9.9",
        dst="10.0.0.1",
        status=RevtrStatus.COMPLETE,
        hops=hops,
    )


class TestReverseTracerouteResult:
    def test_addresses_order(self):
        result = _result_with(
            [HopTechnique.DESTINATION, HopTechnique.RR]
        )
        assert result.addresses() == ["10.0.0.1", "10.0.1.1"]

    def test_atlas_fraction(self):
        result = _result_with(
            [
                HopTechnique.DESTINATION,
                HopTechnique.SPOOFED_RR,
                HopTechnique.INTERSECTION,
                HopTechnique.INTERSECTION,
            ]
        )
        assert result.atlas_fraction() == 0.5

    def test_assumption_queries(self):
        result = ReverseTracerouteResult(
            src="s", dst="d", status=RevtrStatus.COMPLETE,
            hops=[
                ReverseHop("10.0.0.1", HopTechnique.DESTINATION),
                ReverseHop(
                    "10.0.1.1",
                    HopTechnique.ASSUMED_SYMMETRY,
                    assumed_link="intra",
                ),
            ],
        )
        assert result.has_symmetry_assumption
        assert [h.assumed_link for h in result.assumed_hops()] == ["intra"]

    def test_hops_by_technique(self, tiny_internet):
        """A finished measurement's hops are tallied per technique into
        ``revtr_hops_total``, summed across measurements."""
        source = tiny_internet.mlab_hosts[0]
        engine = RevtrEngine(
            prober=Prober(tiny_internet),
            source=source,
            atlas=TracerouteAtlas(source),
            selector=None,
            ip2as=IPToASMapper(tiny_internet),
            relationships=ASRelationships(tiny_internet.graph),
        )
        for techniques in (
            [HopTechnique.DESTINATION, HopTechnique.RR, HopTechnique.RR],
            [HopTechnique.DESTINATION, HopTechnique.SOURCE],
        ):
            result = _result_with(techniques)
            run = engine._begin(result.dst)
            run.hops.extend(result.hops)
            engine._finish(run)
        tallies = engine._obs_collect()
        assert {
            dict(labels)["technique"]: n
            for (name, labels), n in tallies.items()
            if name == "revtr_hops_total"
        } == {"destination": 2.0, "rr": 2.0, "source": 1.0}

    def test_render_contains_everything(self):
        result = _result_with(
            [HopTechnique.DESTINATION, HopTechnique.SOURCE]
        )
        text = result.render()
        assert "complete" in text
        assert "10.0.0.1" in text
        assert "[destination]" in text


class TestRRPingResult:
    def _result(self, slots, dst="10.0.0.5"):
        return RRPingResult(
            dst=dst,
            vp="1.1.1.1",
            responded=True,
            slots=slots,
        )

    def test_exact_stamp(self):
        result = self._result(
            ["10.1.0.1", "10.0.0.5", "10.2.0.1", "10.3.0.1"]
        )
        assert result.destination_stamp_index() == 1
        assert result.reverse_hops() == ["10.2.0.1", "10.3.0.1"]
        assert result.distance() == 2

    def test_double_stamp_fallback(self):
        result = self._result(
            ["10.1.0.1", "10.9.0.9", "10.9.0.9", "10.2.0.1"]
        )
        assert result.destination_stamp_index() == 2
        assert result.destination_stamp_index(
            use_double_stamp=False
        ) is None
        assert result.reverse_hops() == ["10.2.0.1"]

    def test_no_stamp(self):
        result = self._result(["10.1.0.1", "10.2.0.1"])
        assert result.destination_stamp_index() is None
        assert result.reverse_hops() == []
        assert result.distance() is None

    def test_out_of_range_distance(self):
        slots = [f"10.1.0.{i}" for i in range(8)] + ["10.0.0.5"]
        result = self._result(slots)
        assert result.distance() == 9


class TestTopologyConfig:
    def test_invalid_fraction_rejected(self):
        with pytest.raises(ValueError):
            TopologyConfig(host_ping_responsive=1.5)

    def test_stamp_mix_bounded(self):
        with pytest.raises(ValueError):
            TopologyConfig(
                router_no_stamp=0.5,
                router_private_stamp=0.3,
                router_loopback_stamp=0.2,
                router_ingress_stamp=0.2,
            )

    def test_presets_distinct(self):
        assert (
            TopologyConfig.tiny().n_stub
            < TopologyConfig.small().n_stub
            < TopologyConfig.evaluation().n_stub
        )

    def test_epoch_2016_sparser(self):
        epoch = TopologyConfig.epoch_2016()
        modern = TopologyConfig.evaluation()
        assert epoch.n_mlab_sites < modern.n_mlab_sites
        assert epoch.flattening < modern.flattening


class TestVantagePool:
    def test_pool_contents(self, tiny_internet):
        pool = VantagePointPool(tiny_internet)
        assert len(pool.mlab_sites) == len(tiny_internet.mlab_hosts)
        assert len(pool.atlas_probes) == len(
            tiny_internet.atlas_hosts
        )
        assert set(pool.mlab_addresses()) == set(
            tiny_internet.mlab_hosts
        )

    def test_spoofers_respect_as_policy(self, tiny_internet):
        pool = VantagePointPool(tiny_internet)
        for site in pool.spoofers():
            node = tiny_internet.graph.nodes[site.asn]
            assert node.allows_spoofing

    def test_site_lookup(self, tiny_internet):
        pool = VantagePointPool(tiny_internet)
        addr = tiny_internet.mlab_hosts[0]
        site = pool.site_of(addr)
        assert site is not None and site.addr == addr
        assert pool.site_of("203.0.113.1") is None
