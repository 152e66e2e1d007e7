"""Unit tests for TE catchment reports and comparison aggregates."""

import pytest

from repro.core.result import (
    HopTechnique,
    ReverseHop,
    ReverseTracerouteResult,
    RevtrStatus,
)
from repro.experiments.exp_comparison import VariantOutcome
from repro.te.engineering import CatchmentReport


class TestCatchmentReport:
    def _report(self):
        report = CatchmentReport()
        report.site_of = {
            "d1": 100,
            "d2": 100,
            "d3": 200,
            "d4": None,
        }
        report.transits_of = {
            "d1": (10, 11),
            "d2": (10,),
            "d3": (12,),
        }
        report.rtt_of = {"d1": 0.040, "d2": 0.060, "d3": 0.020}
        return report

    def test_site_shares(self):
        shares = self._report().site_shares()
        assert shares[100] == pytest.approx(2 / 3)
        assert shares[200] == pytest.approx(1 / 3)

    def test_destinations_through(self):
        report = self._report()
        assert sorted(report.destinations_through(10)) == ["d1", "d2"]

    def test_empty_report(self):
        report = CatchmentReport()
        assert report.site_shares() == {}
        assert report.destinations_through(1) == []


class TestVariantOutcome:
    def _result(self, status, counts, duration=1.0):
        return ReverseTracerouteResult(
            src="s",
            dst="d",
            status=status,
            hops=[ReverseHop("10.0.0.1", HopTechnique.DESTINATION)],
            duration=duration,
            probe_counts=counts,
        )

    def test_coverage_excludes_unresponsive(self):
        outcome = VariantOutcome(variant="x")
        outcome.results = [
            self._result(RevtrStatus.COMPLETE, {}),
            self._result(RevtrStatus.ABORTED_INTERDOMAIN, {}),
            self._result(RevtrStatus.UNRESPONSIVE, {}),
        ]
        assert outcome.coverage() == pytest.approx(0.5)

    def test_packet_counts_sum(self):
        outcome = VariantOutcome(variant="x")
        outcome.results = [
            self._result(
                RevtrStatus.COMPLETE,
                {"rr": 2, "spoof-rr": 3, "ping": 9},
            ),
            self._result(RevtrStatus.COMPLETE, {"ts": 1}),
        ]
        counts = outcome.packet_counts()
        assert counts["rr"] == 2
        assert counts["spoof-rr"] == 3
        assert counts["ts"] == 1
        # pings are not a Table 4 packet type
        assert counts["total"] == 6

    def test_median_duration(self):
        outcome = VariantOutcome(variant="x")
        outcome.results = [
            self._result(RevtrStatus.COMPLETE, {}, duration=1.0),
            self._result(RevtrStatus.COMPLETE, {}, duration=9.0),
            self._result(RevtrStatus.COMPLETE, {}, duration=2.0),
        ]
        assert outcome.median_duration() == 2.0

    def test_empty_outcome(self):
        import math

        outcome = VariantOutcome(variant="x")
        assert outcome.coverage() == 0.0
        assert math.isnan(outcome.median_duration())
