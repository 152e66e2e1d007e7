"""Tests for the health engine (repro.obs.health) and ``repro health``."""

import json

import pytest

from repro.obs import Instrumentation
from repro.obs.health import (
    RULES_TABLE,
    HealthEngine,
    HealthFinding,
    format_findings,
)
from repro.obs.timeseries import install_sampler
from repro.sim.clock import VirtualClock


def make_sampler():
    instr = Instrumentation()
    clock = VirtualClock()
    sampler = install_sampler(instr, sim_interval=None, clock=clock)
    return instr, clock, sampler


def kinds(findings):
    return {f.kind for f in findings}


class TestRules:
    def test_quiet_series_is_healthy(self):
        instr, clock, sampler = make_sampler()
        for _ in range(3):
            instr.inc("revtr_measurements_total", n=4, status="complete")
            sampler.sample()
            clock.advance(30.0)
        findings = HealthEngine().evaluate(sampler)
        assert findings == []
        assert HealthEngine.status(findings) == "healthy"

    def test_slo_burn_fires_and_escalates(self):
        instr, clock, sampler = make_sampler()
        sampler.sample()
        clock.advance(60.0)
        # 6/8 failed: error fraction 0.75, budget 0.25 -> burn 3.0
        instr.inc("revtr_measurements_total", n=2, status="complete")
        instr.inc(
            "revtr_measurements_total", n=6, status="destination-unresponsive"
        )
        sampler.sample()
        findings = HealthEngine().evaluate(sampler)
        assert kinds(findings) == {"slo-burn-rate"}
        finding = findings[0]
        assert finding.value == pytest.approx(3.0)
        # < 2x threshold (1.6) -> warning
        assert finding.severity == "warning"
        assert finding.evidence["window_statuses"][
            "destination-unresponsive"
        ] == 6.0
        assert finding.window == (0.0, 60.0)

    def test_slo_burn_respects_min_requests(self):
        instr, clock, sampler = make_sampler()
        sampler.sample()
        clock.advance(60.0)
        instr.inc("revtr_measurements_total", n=2, status="failed")
        sampler.sample()
        assert HealthEngine().evaluate(sampler) == []

    def test_retry_storm_counts_engine_and_scheduler(self):
        instr, clock, sampler = make_sampler()
        sampler.sample()
        clock.advance(60.0)
        instr.inc("revtr_retries_total", n=4, reason="unresponsive")
        instr.inc("service_retries_total", n=4, user="u")
        sampler.sample()
        findings = HealthEngine().evaluate(sampler)
        assert "retry-storm" in kinds(findings)
        storm = next(f for f in findings if f.kind == "retry-storm")
        assert storm.value == pytest.approx(8.0)
        # 8 >= 2 * threshold (3.0) -> critical
        assert storm.severity == "critical"
        assert storm.evidence["engine_retries"] == pytest.approx(4.0)
        assert storm.evidence["scheduler_retries"] == pytest.approx(4.0)

    def test_quarantine_churn(self):
        instr, clock, sampler = make_sampler()
        sampler.sample()
        clock.advance(60.0)
        instr.inc("vp_quarantines_total", n=2)
        instr.inc("vp_replacements_total", n=3)
        instr.set_gauge("vp_quarantined_current", 2.0)
        sampler.sample()
        findings = HealthEngine().evaluate(sampler)
        churn = next(f for f in findings if f.kind == "quarantine-churn")
        assert churn.value == pytest.approx(5.0)
        assert churn.evidence["quarantined_now"] == 2.0

    def test_cache_collapse_needs_a_baseline(self):
        # Cold cache: all misses from the start, no finding.
        instr, clock, sampler = make_sampler()
        sampler.sample()
        clock.advance(60.0)
        instr.inc("cache_lookups_total", n=10, outcome="miss", kind="m")
        sampler.sample()
        assert HealthEngine().evaluate(sampler) == []
        # Warm baseline that collapses inside the window: finding.
        instr, clock, sampler = make_sampler()
        instr.inc("cache_lookups_total", n=6, outcome="hit", kind="m")
        instr.inc("cache_lookups_total", n=4, outcome="miss", kind="m")
        sampler.sample()
        clock.advance(60.0)
        instr.inc("cache_lookups_total", n=10, outcome="miss", kind="m")
        sampler.sample()
        findings = HealthEngine().evaluate(sampler)
        collapse = next(
            f for f in findings if f.kind == "cache-hit-collapse"
        )
        assert collapse.evidence["baseline_hit_rate"] == pytest.approx(0.6)
        assert collapse.evidence["window_hit_rate"] == pytest.approx(0.0)

    def test_queue_buildup_requires_growth(self):
        def sampled_depths(depths):
            instr, clock, sampler = make_sampler()
            for depth in depths:
                instr.set_gauge("service_queue_depth", depth, user="u")
                sampler.sample()
                clock.advance(30.0)
            return HealthEngine().evaluate(sampler)

        assert "queue-buildup" in kinds(sampled_depths([2.0, 8.0, 12.0]))
        # Decreasing tail: draining, not buildup.
        assert sampled_depths([12.0, 10.0, 9.0]) == []
        # Flat at threshold: stable, not buildup.
        assert sampled_depths([9.0, 9.0, 9.0]) == []

    def test_event_ring_drop_onset(self):
        instr, clock, sampler = make_sampler()
        sampler.sample()
        clock.advance(30.0)
        # Overflow the ring: capacity defaults are large, so fabricate
        # the drop by emitting more events than a tiny ring holds.
        small = Instrumentation(event_capacity=4)
        small_clock = VirtualClock()
        small_sampler = install_sampler(
            small, sim_interval=None, clock=small_clock
        )
        small_sampler.sample()
        small_clock.advance(30.0)
        for n in range(10):
            small.emit("fault.inject", n=n)
        small_sampler.sample()
        findings = HealthEngine().evaluate(small_sampler)
        drops = next(
            f for f in findings if f.kind == "event-ring-drops"
        )
        assert drops.evidence["onset"] is True
        assert drops.value >= 1.0

    def test_rejection_storm(self):
        instr, clock, sampler = make_sampler()
        sampler.sample()
        clock.advance(60.0)
        instr.inc(
            "service_rejections_total", n=4, user="u", reason="queue-full"
        )
        instr.inc(
            "service_rejections_total", n=2, user="u", reason="quota"
        )
        sampler.sample()
        findings = HealthEngine().evaluate(sampler)
        storm = next(f for f in findings if f.kind == "rejection-storm")
        assert storm.value == pytest.approx(6.0)
        assert storm.evidence["window_by_reason"] == {
            "queue-full": 4.0,
            "quota": 2.0,
        }

    def test_atlas_staleness_by_age(self):
        instr, clock, sampler = make_sampler()
        instr.set_gauge(
            "atlas_age_seconds", 3 * 86400.0, source="s", stat="oldest"
        )
        sampler.sample()
        findings = HealthEngine().evaluate(sampler)
        stale = next(f for f in findings if f.kind == "atlas-staleness")
        assert stale.value == pytest.approx(3 * 86400.0)


class TestEvidence:
    def test_findings_cite_window_event_seqs(self):
        instr, clock, sampler = make_sampler()
        instr.events.clock = clock
        sampler.sample()
        clock.advance(10.0)
        for _ in range(4):
            instr.emit("degrade.retry", vp="1.2.3.4")
            instr.inc("revtr_retries_total", reason="unresponsive")
        clock.advance(10.0)
        sampler.sample()
        findings = HealthEngine().evaluate(sampler, instr.events)
        storm = next(f for f in findings if f.kind == "retry-storm")
        assert len(storm.event_seqs) == 4
        assert "degrade.retry" in storm.event_kinds
        cited = {
            e.seq for e in instr.events.events(kind="degrade.retry")
        }
        assert set(storm.event_seqs) <= cited

    def test_out_of_window_events_not_cited(self):
        instr, clock, sampler = make_sampler()
        instr.events.clock = clock
        # Retry events before the first sample fall outside the window.
        instr.emit("degrade.retry", vp="1.2.3.4")
        clock.advance(5.0)
        sampler.sample()
        clock.advance(10.0)
        instr.emit("degrade.retry", vp="5.6.7.8")
        instr.inc("revtr_retries_total", n=4, reason="unresponsive")
        clock.advance(5.0)
        sampler.sample()
        findings = HealthEngine().evaluate(sampler, instr.events)
        storm = next(f for f in findings if f.kind == "retry-storm")
        assert len(storm.event_seqs) == 1

    def test_findings_sorted_severity_first(self):
        instr, clock, sampler = make_sampler()
        sampler.sample()
        clock.advance(60.0)
        # warning-grade SLO burn + critical-grade retry storm.
        instr.inc("revtr_measurements_total", n=3, status="complete")
        instr.inc("revtr_measurements_total", n=5, status="failed")
        instr.inc("revtr_retries_total", n=10, reason="unresponsive")
        sampler.sample()
        findings = HealthEngine().evaluate(sampler)
        severities = [f.severity for f in findings]
        assert severities == sorted(
            severities,
            key=lambda s: {"critical": 2, "warning": 1, "info": 0}[s],
            reverse=True,
        )
        assert findings[0].kind == "retry-storm"

    def test_to_dict_round_trips_json(self):
        instr, clock, sampler = make_sampler()
        sampler.sample()
        clock.advance(60.0)
        instr.inc("revtr_retries_total", n=4, reason="unresponsive")
        sampler.sample()
        findings = HealthEngine().evaluate(sampler)
        docs = [f.to_dict() for f in findings]
        parsed = json.loads(json.dumps(docs))
        assert parsed[0]["kind"] == findings[0].kind
        assert parsed[0]["window"] == [0.0, 60.0]


class TestContract:
    def test_rules_table_matches_engine_and_config(self):
        engine = HealthEngine()
        rule_kinds = {
            t[3] for t in RULES_TABLE
        }
        # Every correlation entry belongs to a tabled rule kind.
        assert set(HealthEngine.EVENT_CORRELATION) <= rule_kinds
        # The table is the configuration: one rule per row, evaluated
        # in row order with that row's window and threshold.
        assert [t[3] for t in RULES_TABLE] == list(engine._rules)
        for signal, window, threshold, kind in RULES_TABLE:
            assert window > 0 and threshold > 0, kind

    def test_one_window_overrides_every_rule(self):
        # `repro health --window N`: a storm three minutes back is
        # inside every rule's own window and outside a 30 s one.
        instr, clock, sampler = make_sampler()
        sampler.sample()
        clock.advance(60.0)
        instr.inc("revtr_retries_total", n=8, reason="unresponsive")
        instr.inc("vp_quarantines_total", n=2)
        for _ in range(4):
            sampler.sample()
            clock.advance(60.0)
        assert kinds(HealthEngine().evaluate(sampler)) == {
            "retry-storm", "quarantine-churn",
        }
        assert HealthEngine(window=30.0).evaluate(sampler) == []

    def test_status_rollup(self):
        warn = HealthFinding(
            kind="x", severity="warning", message="", window=(0, 1),
            value=1.0, threshold=1.0,
        )
        crit = HealthFinding(
            kind="y", severity="critical", message="", window=(0, 1),
            value=2.0, threshold=1.0,
        )
        assert HealthEngine.status([]) == "healthy"
        assert HealthEngine.status([warn]) == "degraded"
        assert HealthEngine.status([warn, crit]) == "critical"

    def test_format_findings_renders_evidence(self):
        instr, clock, sampler = make_sampler()
        instr.events.clock = clock
        sampler.sample()
        clock.advance(60.0)
        instr.emit("degrade.retry", vp="1.2.3.4")
        instr.inc("revtr_retries_total", n=4, reason="unresponsive")
        sampler.sample()
        findings = HealthEngine().evaluate(sampler, instr.events)
        text = format_findings(findings)
        assert "== health:" in text
        assert "retry-storm" in text
        assert "window: sim" in text
        assert "events (" in text
        assert "no findings" in format_findings([])
