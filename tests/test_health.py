"""Tests for the health engine (repro.obs.health) and ``repro health``."""

import json
from pathlib import Path

import pytest

from repro.obs import Instrumentation
from repro.obs.health import (
    RULES,
    HealthEngine,
    HealthFinding,
    format_findings,
    render_rules_table,
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
            small.emit("degrade.retry", n=n)
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
    def test_design_md_carries_the_rendered_rules_table(self):
        # The way tests/test_evidence.py holds EXPERIMENTS.md: the
        # document's table is what the records render to, verbatim.
        design = Path(__file__).resolve().parent.parent / "DESIGN.md"
        table = render_rules_table()
        assert table in design.read_text(), (
            "DESIGN.md's health rules table is not "
            "repro.obs.health.render_rules_table():\n" + table
        )
        assert len({rule.kind for rule in RULES}) == len(RULES)

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


# -- a rule is a reader only if it can fire -----------------------------
#
# The four rules no `repro health` preset trips, each driven by its
# cause through Scenario / RevtrService / RequestScheduler calls alone
# (no hand-fed `inc` / `set_gauge`): the rule fires, and falls silent
# once the cause is gone.


def live_world(seed: int = 5):
    from repro.experiments import Scenario
    from repro.topology import TopologyConfig

    instr = Instrumentation()
    sampler = install_sampler(instr, sim_interval=None)
    scenario = Scenario(
        config=TopologyConfig.tiny(seed=seed),
        seed=seed,
        atlas_size=10,
        instrumentation=instr,
    )
    return instr, sampler, scenario


def scheduled_world(**config):
    from repro.service import SchedulerConfig

    instr, sampler, scenario = live_world()
    service = scenario.service()
    user = service.add_user("u", max_parallel=1, max_per_day=10_000)
    source = scenario.sources()[0]
    service.add_source(user.api_key, source)
    scheduler = service.scheduler(
        SchedulerConfig(parallelism=1, **config)
    )
    dsts = iter(scenario.responsive_destinations(options_only=True))

    def submit(n):
        for _ in range(n):
            scheduler.submit(user.api_key, next(dsts), source)

    return instr, sampler, scenario, scheduler, submit


def fired(sampler, instr, kind):
    findings = HealthEngine().evaluate(sampler, instr.events)
    return next((f for f in findings if f.kind == kind), None)


class TestRulesFireForTheirCause:
    def test_atlas_staleness_cites_the_stale_stitch(self):
        instr, sampler, scenario = live_world()
        engine = scenario.engine(scenario.sources()[0], "revtr2.0")
        sampler.sample()
        assert fired(sampler, instr, "atlas-staleness") is None
        # Cause: the atlas outlives its staleness bound and the engine
        # goes on adopting intersections from it.
        scenario.clock.advance(engine.atlas.staleness + 60.0)
        sampler.sample()
        stale = []
        for dst in scenario.responsive_destinations(options_only=True):
            result = engine.measure(dst)
            if result.stale_intersection:
                stale.append(result.measurement_id)
            if len(stale) == 3:
                break
        sampler.sample()
        finding = fired(sampler, instr, "atlas-staleness")
        assert finding is not None and finding.value == 3.0
        # The evidence is those measurements' `stitch` events (it was
        # `intersect` with an outcome the engine never emits: no
        # finding could cite anything).
        assert finding.event_kinds == ("stitch",)
        assert finding.event_seqs == [
            event.seq
            for mid in stale
            for event in instr.events.events(mid=mid, kind="stitch")
        ]
        # Cause gone: a refreshed atlas, and the window moves on.
        engine.atlas.refresh(
            scenario.background_prober,
            scenario.atlas_vp_addrs,
            scenario.bundle_rng(engine.source),
        )
        scenario.clock.advance(1000.0)
        sampler.sample()
        for dst in scenario.responsive_destinations(6, options_only=True):
            engine.measure(dst)
        sampler.sample()
        assert fired(sampler, instr, "atlas-staleness") is None

    def test_cache_hit_collapse_after_the_ttl(self):
        instr, sampler, scenario = live_world()
        engine = scenario.engine(scenario.sources()[0], "revtr2.0")
        dsts = scenario.responsive_destinations(6, options_only=True)

        def passes(n):
            for _ in range(n):
                for dst in dsts:
                    engine.measure(dst)

        passes(3)  # warm: the repeats hit
        sampler.sample()
        assert fired(sampler, instr, "cache-hit-collapse") is None
        # Cause: every entry ages out at once.
        scenario.clock.advance(engine.cache.ttl + 1.0)
        sampler.sample()
        passes(1)
        sampler.sample()
        finding = fired(sampler, instr, "cache-hit-collapse")
        assert finding is not None
        assert finding.evidence["window_hit_rate"] == 0.0
        assert finding.evidence["baseline_hit_rate"] > 0.5
        # Cause gone: the cache is warm again and the window moves on.
        scenario.clock.advance(700.0)
        sampler.sample()
        passes(2)
        sampler.sample()
        assert fired(sampler, instr, "cache-hit-collapse") is None

    def test_queue_buildup_while_submits_outrun_steps(self):
        instr, sampler, _, scheduler, submit = scheduled_world(
            max_queue_per_user=64
        )
        sampler.sample()
        # Cause: four submissions for every job executed.
        for _ in range(3):
            submit(4)
            scheduler.step()
            sampler.sample()
        finding = fired(sampler, instr, "queue-buildup")
        assert finding is not None and finding.value == 9.0
        assert finding.evidence["depths"][-3:] == [3.0, 6.0, 9.0]
        # Cause gone: no more submissions, the queue drains.
        while scheduler.step() is not None:
            sampler.sample()
        assert sampler.latest.gauge_value("service_queue_depth") == 0.0
        assert fired(sampler, instr, "queue-buildup") is None

    def test_rejection_storm_against_a_short_queue(self):
        instr, sampler, scenario, scheduler, submit = scheduled_world(
            max_queue_per_user=2
        )
        sampler.sample()
        # Cause: a burst of nine into a queue of two.
        submit(9)
        sampler.sample()
        finding = fired(sampler, instr, "rejection-storm")
        assert finding is not None and finding.value == 7.0
        assert finding.evidence["window_by_reason"] == {"queue-full": 7.0}
        rejects = instr.events.events(kind="sched.reject")
        assert finding.event_seqs == [event.seq for event in rejects]
        # Cause gone: the queue drains, later submissions fit, and the
        # burst leaves the window.
        while scheduler.step() is not None:
            pass
        scenario.clock.advance(400.0)
        sampler.sample()
        submit(2)
        while scheduler.step() is not None:
            pass
        sampler.sample()
        assert fired(sampler, instr, "rejection-storm") is None
