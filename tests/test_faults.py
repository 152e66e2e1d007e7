"""Chaos harness tests: deterministic fault injection + degradation.

The fault injector must be invisible when absent or empty (the
byte-identity acceptance test below), a pure function of
``(plan, seed, workload)`` when active, and every degradation hook it
triggers — retries, quarantines, partial-result statuses — must fire
deterministically under the faults these tests inject.
"""

import pytest

from repro.core.result import RevtrStatus
from repro.core.revtr import EngineConfig
from repro.experiments import Scenario
from repro.net.packet import Probe
from repro.obs import Instrumentation
from repro.probing.traceroute import paris_traceroute
from repro.probing.vantage import VPHealthTracker
from repro.sim.faults import (
    FaultInjector,
    FaultPlan,
    FaultSpec,
    PRESETS,
    preset_plan,
)
from repro.topology import TopologyConfig


class FakeClock:
    def __init__(self, t=0.0):
        self.t = t

    def now(self):
        return self.t

    def advance(self, dt):
        self.t += dt


def chaos_scenario(atlas_size=20):
    """A fresh tiny scenario; callers install faults themselves."""
    return Scenario(
        config=TopologyConfig.tiny(seed=7), seed=7, atlas_size=atlas_size
    )


class TestFaultSpec:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultSpec(kind="emp-burst")

    def test_rate_bounds(self):
        with pytest.raises(ValueError, match="rate"):
            FaultSpec(kind="link-loss", rate=1.5)
        with pytest.raises(ValueError, match="rate"):
            FaultSpec(kind="link-loss", rate=-0.1)

    def test_window_ordering(self):
        with pytest.raises(ValueError, match="end"):
            FaultSpec(kind="link-loss", start=10.0, end=10.0)
        with pytest.raises(ValueError, match="start"):
            FaultSpec(kind="link-loss", start=-1.0)

    def test_vp_outage_needs_vps(self):
        with pytest.raises(ValueError, match="vps"):
            FaultSpec(kind="vp-outage")

    def test_active_window(self):
        spec = FaultSpec(kind="link-loss", start=10.0, end=20.0)
        assert not spec.active(9.9)
        assert spec.active(10.0)
        assert spec.active(19.9)
        assert not spec.active(20.0)
        forever = FaultSpec(kind="link-loss", start=5.0)
        assert forever.active(1e12)

    def test_dict_round_trip(self):
        spec = FaultSpec(
            kind="router-rate-limit",
            start=3.0,
            end=9.0,
            routers=(4, 7),
            limit=2,
            window=30.0,
            label="icmp-police",
        )
        assert FaultSpec.from_dict(spec.to_dict()) == spec
        # Links arrive as lists from JSON; normalization restores them.
        loss = FaultSpec(
            kind="link-loss", links=((1, 2), (3, 4)), rate=0.25
        )
        assert FaultSpec.from_dict(loss.to_dict()) == loss


class TestFaultPlan:
    def test_json_round_trip(self):
        plan = FaultPlan(seed=42)
        plan.add(FaultSpec(kind="link-loss", rate=0.3))
        plan.add(
            FaultSpec(kind="vp-outage", vps=("10.0.0.1",), end=60.0)
        )
        loaded = FaultPlan.from_json(plan.to_json())
        assert loaded.seed == 42
        assert loaded.specs == plan.specs

    def test_version_rejected(self):
        with pytest.raises(ValueError, match="version"):
            FaultPlan.from_dict({"v": 99, "specs": []})

    def test_empty_and_by_kind(self):
        plan = FaultPlan(seed=1)
        assert plan.empty
        plan.add(FaultSpec(kind="link-loss", rate=0.1))
        plan.add(FaultSpec(kind="spoof-blackhole"))
        assert not plan.empty
        assert len(plan.by_kind("link-loss")) == 1
        assert plan.by_kind("router-filter") == []


class TestPresets:
    def test_unknown_preset_rejected(self):
        with pytest.raises(ValueError, match="unknown preset"):
            preset_plan("meteor")

    def test_none_is_empty(self):
        assert preset_plan("none", seed=3).empty

    def test_vp_flap_needs_fleet(self):
        with pytest.raises(ValueError, match="vps"):
            preset_plan("vp-flap", seed=3)

    def test_vp_flap_staggers_two_groups(self):
        fleet = [f"10.0.0.{i}" for i in range(9)]
        plan = preset_plan("vp-flap", seed=3, vps=fleet)
        outages = plan.by_kind("vp-outage")
        assert len(outages) == 3
        # First and third windows down the same group; the middle
        # window downs a disjoint one.
        assert outages[0].vps == outages[2].vps
        assert not set(outages[0].vps) & set(outages[1].vps)
        assert [s.start for s in outages] == [0.0, 150.0, 300.0]

    def test_presets_are_pure_functions(self):
        fleet = [f"10.0.0.{i}" for i in range(8)]
        for name in PRESETS:
            a = preset_plan(name, seed=5, vps=fleet)
            b = preset_plan(name, seed=5, vps=fleet)
            assert a.to_json() == b.to_json()


class TestByteIdentity:
    """The acceptance gate: an installed-but-empty plan is invisible."""

    def _run(self, install_empty):
        scenario = chaos_scenario()
        source = scenario.sources()[0]
        engine = scenario.engine(source, "revtr2.0")
        destinations = scenario.responsive_destinations(
            3, options_only=True
        )
        if install_empty:
            scenario.install_faults(FaultPlan(seed=7))
        results = [engine.measure(dst) for dst in destinations]
        return (
            [r.to_dict() for r in results],
            scenario.clock.now(),
            {
                kind.value: count
                for kind, count in scenario.online_counter.counts.items()
            },
        )

    def test_empty_plan_is_byte_identical(self):
        assert self._run(False) == self._run(True)


class TestLinkLoss:
    def _draws(self, seed, n=200, rate=0.5):
        injector = FaultInjector(
            FaultPlan(
                specs=[FaultSpec(kind="link-loss", rate=rate)],
                seed=seed,
            ),
            FakeClock(),
        )
        probe = Probe(src="10.0.0.1", dst="10.0.0.2")
        return [injector.link_drops(3, 4, probe) for _ in range(n)]

    def test_draws_are_seeded_and_counter_mode(self):
        first = self._draws(seed=11)
        # Not degenerate: a 0.5-rate coin lands on both sides, and a
        # retry of the identical packet gets an independent draw.
        assert True in first and False in first
        # Pure function of the seed: a fresh injector replays exactly.
        assert self._draws(seed=11) == first
        assert self._draws(seed=12) != first

    def test_targeted_links_only(self):
        injector = FaultInjector(
            FaultPlan(
                specs=[
                    FaultSpec(
                        kind="link-loss", links=((1, 2),), rate=1.0
                    )
                ],
                seed=0,
            ),
            FakeClock(),
        )
        probe = Probe(src="10.0.0.1", dst="10.0.0.2")
        assert injector.link_drops(1, 2, probe)
        # Matching is unordered (links are bidirectional).
        assert injector.link_drops(2, 1, probe)
        assert not injector.link_drops(3, 4, probe)

    def test_blanket_loss_drops_pings_with_reason(self):
        scenario = chaos_scenario()
        source = scenario.sources()[0]
        dst = scenario.responsive_destinations(1, options_only=True)[0]
        assert scenario.online_prober.ping(source, dst) is not None
        injector = scenario.install_faults(
            FaultPlan(
                specs=[FaultSpec(kind="link-loss", rate=1.0)], seed=1
            )
        )
        outcome = scenario.internet.send_probe(
            Probe(src=source, dst=dst)
        )
        assert outcome.drop_reason == "fault:link-loss"
        assert scenario.online_prober.ping(source, dst) is None
        assert injector.counts["link-loss"] >= 2


class TestRouterPolicing:
    def test_blanket_policing_anonymizes_traceroute(self):
        scenario = chaos_scenario()
        source = scenario.sources()[0]
        dst = scenario.responsive_destinations(1, options_only=True)[0]
        clean = paris_traceroute(scenario.online_prober, source, dst)
        assert clean.reached and None not in clean.hops

        policed = chaos_scenario()
        injector = policed.install_faults(
            FaultPlan(
                specs=[
                    FaultSpec(
                        kind="router-rate-limit", limit=0, window=60.0
                    )
                ],
                seed=1,
            )
        )
        tr = paris_traceroute(policed.online_prober, source, dst)
        # Every TTL-expired reply was suppressed: all-star hops, the
        # destination never confirmed.
        assert tr.hops and all(hop is None for hop in tr.hops)
        assert not tr.reached
        assert injector.counts["router-rate-limit"] == len(tr.hops)
        # Policing models router control-plane ICMP: *host* echo
        # replies are unaffected.
        assert policed.online_prober.ping(source, dst) is not None

    def test_rate_limit_budget_is_per_window(self):
        scenario = chaos_scenario()
        source = scenario.sources()[0]
        dst = scenario.responsive_destinations(1, options_only=True)[0]
        scenario.install_faults(
            FaultPlan(
                specs=[
                    FaultSpec(
                        kind="router-rate-limit", limit=1, window=1e9
                    )
                ],
                seed=1,
            )
        )
        first = paris_traceroute(scenario.online_prober, source, dst)
        second = paris_traceroute(scenario.online_prober, source, dst)
        # One reply per router per (enormous) window: the first walk
        # spends every router's budget, the second sees only stars.
        assert first.reached and None not in first.hops
        assert all(hop is None for hop in second.hops)

    def test_router_filter_is_total(self):
        scenario = chaos_scenario()
        source = scenario.sources()[0]
        dst = scenario.responsive_destinations(1, options_only=True)[0]
        injector = scenario.install_faults(
            FaultPlan(
                specs=[FaultSpec(kind="router-filter")], seed=1
            )
        )
        tr = paris_traceroute(scenario.online_prober, source, dst)
        assert all(hop is None for hop in tr.hops)
        assert injector.counts["router-filter"] >= 1


class TestVPOutageAndBlackhole:
    def test_outage_downs_injecting_vp_then_lifts(self):
        scenario = chaos_scenario()
        source = scenario.sources()[0]
        dst = scenario.responsive_destinations(1, options_only=True)[0]
        vps = [vp for vp in scenario.spoofer_addrs if vp != source][:3]
        down = vps[0]
        start = scenario.clock.now()
        scenario.install_faults(
            FaultPlan(
                specs=[
                    FaultSpec(
                        kind="vp-outage",
                        vps=(down,),
                        end=start + 1.0,
                    )
                ],
                seed=1,
            )
        )
        batch = scenario.online_prober.spoofed_rr_batch(
            vps, dst, spoof_as=source
        )
        assert not batch[0].responded
        # The batch timeout pushed the clock past the outage window:
        # the same VP answers again.
        again = scenario.online_prober.spoofed_rr_batch(
            vps, dst, spoof_as=source
        )
        assert again[0].responded

    def test_blackhole_eats_only_spoofed_probes(self):
        scenario = chaos_scenario()
        source = scenario.sources()[0]
        dst = scenario.responsive_destinations(1, options_only=True)[0]
        others = [
            vp for vp in scenario.spoofer_addrs if vp != source
        ][:3]
        injector = scenario.install_faults(
            FaultPlan(
                specs=[FaultSpec(kind="spoof-blackhole")], seed=1
            )
        )
        # Include the source itself: its probe is not spoofed
        # (src == spoof_as) and must pass the black-hole untouched.
        batch = scenario.online_prober.spoofed_rr_batch(
            [source] + others, dst, spoof_as=source
        )
        assert batch[0].responded
        assert all(not r.responded for r in batch[1:])
        assert injector.counts["spoof-blackhole"] == len(others)


class TestVPHealthTracker:
    def test_threshold_validated(self):
        with pytest.raises(ValueError, match="threshold"):
            VPHealthTracker(FakeClock(), threshold=0)

    def test_streak_resets_on_success(self):
        tracker = VPHealthTracker(FakeClock(), threshold=3)
        tracker.record("vp1", False)
        tracker.record("vp1", False)
        tracker.record("vp1", True)
        tracker.record("vp1", False)
        tracker.record("vp1", False)
        assert not tracker.is_quarantined("vp1")
        assert tracker.quarantines == 0

    def test_quarantine_and_release(self):
        clock = FakeClock()
        tracker = VPHealthTracker(
            clock, threshold=2, quarantine_seconds=100.0
        )
        tracker.record("vp1", False)
        tracker.record("vp1", False)
        assert tracker.is_quarantined("vp1")
        assert tracker.quarantines == 1
        clock.advance(100.0)
        assert not tracker.is_quarantined("vp1")
        assert tracker.recoveries == 1

    def test_filter_batch_replaces_from_candidates(self):
        clock = FakeClock()
        tracker = VPHealthTracker(clock, threshold=1)
        tracker.record("vp1", False)
        kept, replaced = tracker.filter_batch(
            ["vp1", "vp2"],
            candidates=["vp1", "vp2", "src", "vp3"],
            exclude=("src",),
        )
        # vp1 quarantined; the healthy top-up skips batch members and
        # the excluded source, drafting vp3.
        assert kept == ["vp2", "vp3"]
        assert replaced == 1
        assert tracker.replacements == 1

    def test_snapshot_shape(self):
        tracker = VPHealthTracker(FakeClock(), threshold=1)
        tracker.record("vp9", False)
        snap = tracker.snapshot()
        assert snap["quarantines"] == 1
        assert snap["quarantined_now"] == ["vp9"]


def measure_degraded(plan, destinations=None):
    """Four measurements on a fresh tiny scenario under *plan*, with
    the retry, recheck and VP-quarantine machinery on; returns
    ``(results, engine, vp_health_tracker)``."""
    scenario = chaos_scenario()
    source = scenario.sources()[0]
    engine = scenario.engine(
        source,
        "revtr2.0",
        config=EngineConfig(
            retry_budget=8,
            recheck_unresponsive=True,
        ),
    )
    if destinations is None:
        destinations = scenario.responsive_destinations(
            4, options_only=True
        )
    tracker = scenario.install_vp_health(
        threshold=2, quarantine_seconds=300.0
    )
    scenario.install_faults(plan)
    return [engine.measure(dst) for dst in destinations], engine, tracker


def loss_plan(rate):
    specs = [FaultSpec(kind="link-loss", rate=rate)] if rate else []
    return FaultPlan(specs=specs, seed=7)


class TestEngineDegradation:
    def test_retry_budget_spent_under_loss(self):
        _, engine, _ = measure_degraded(loss_plan(0.2))
        assert sum(engine.retry_counts.values()) >= 1

    def test_loss_degrades_without_a_cliff(self):
        """Full credit for a complete path, up to half for a degraded
        result that still revealed reverse hops: the mean never rises
        with the loss rate, and no rate goes totally dark."""

        def credit(result):
            if result.status is RevtrStatus.COMPLETE:
                return 1.0
            return 0.5 * min(1.0, (len(result.hops) - 1) / 4.0)

        scores = []
        for rate in (0.0, 0.1, 0.2, 0.3):
            results, _, _ = measure_degraded(loss_plan(rate))
            assert any(
                r.status is RevtrStatus.COMPLETE or r.is_partial
                for r in results
            ), rate
            scores.append(sum(map(credit, results)) / len(results))
        assert scores[0] == 1.0
        assert scores == sorted(scores, reverse=True)

    def test_vp_outage_quarantines_and_replaces(self):
        # Destinations whose direct RR ping answers but reveals no
        # reverse hop can only be measured through spoofed batches, so
        # the downed third of the fleet is on the probing path.  Found
        # on a scratch scenario: direct RR is a function of topology.
        scout = chaos_scenario()
        source = scout.sources()[0]
        hungry = []
        for dst in scout.responsive_destinations(options_only=True):
            rr = scout.online_prober.rr_ping(source, dst)
            if rr.responded and not rr.reverse_hops():
                hungry.append(dst)
        # Never the source: that would measure source death, not churn.
        fleet = sorted(vp for vp in scout.spoofer_addrs if vp != source)
        plan = FaultPlan(
            specs=[
                FaultSpec(
                    kind="vp-outage", vps=tuple(fleet[: len(fleet) // 3])
                )
            ],
            seed=7,
        )
        results, _, tracker = measure_degraded(plan, hungry[:4])
        health = tracker.snapshot()
        assert health["quarantines"] >= 1
        assert health["replacements"] >= 1
        assert any(r.status is RevtrStatus.COMPLETE for r in results)

    def test_zero_budget_never_retries(self):
        scenario = chaos_scenario()
        source = scenario.sources()[0]
        engine = scenario.engine(
            source, "revtr2.0", config=EngineConfig(retry_budget=0)
        )
        scenario.install_faults(
            FaultPlan(
                specs=[FaultSpec(kind="link-loss", rate=0.2)], seed=7
            )
        )
        for dst in scenario.responsive_destinations(
            3, options_only=True
        ):
            engine.measure(dst)
        assert engine.retry_counts == {}

    def test_unresponsive_recheck_keeps_partial_hops(self):
        """A destination that dies mid-measurement is reported
        UNRESPONSIVE *with* the reverse hops already revealed — the
        degraded result keeps its partial path (regression: the
        unresponsive path used to be reachable only with zero hops).
        """
        scenario = chaos_scenario()
        source = scenario.sources()[0]
        engine = scenario.engine(
            source,
            "revtr2.0",
            config=EngineConfig(
                retry_budget=4,
                recheck_unresponsive=True,
            ),
        )
        # Fault-free this destination completes with 12 hops over ~15
        # virtual seconds (measurement starts at t~80.9); a total
        # blackout from t=93.0 kills it mid-walk.
        dst = scenario.responsive_destinations(
            20, options_only=True
        )[12]
        scenario.install_faults(
            FaultPlan(
                specs=[
                    FaultSpec(kind="link-loss", rate=1.0, start=93.0)
                ],
                seed=1,
            )
        )
        result = engine.measure(dst)
        assert result.status is RevtrStatus.UNRESPONSIVE
        assert len(result.hops) >= 2
        assert result.hops[0].addr == dst
        assert result.is_partial

    def test_recheck_disabled_by_default(self):
        # Byte-identity depends on this default: a dead-end without the
        # opt-in recheck stays INCOMPLETE, exactly as before the chaos
        # harness existed.
        assert EngineConfig().recheck_unresponsive is False
        assert EngineConfig().retry_budget == 0


class TestFaultObservability:
    def test_injections_reach_events_and_metrics(self):
        instr = Instrumentation()
        scenario = Scenario(
            config=TopologyConfig.tiny(seed=7),
            seed=7,
            atlas_size=20,
            instrumentation=instr,
        )
        source = scenario.sources()[0]
        engine = scenario.engine(
            source,
            "revtr2.0",
            config=EngineConfig(retry_budget=4),
        )
        destinations = scenario.responsive_destinations(
            3, options_only=True
        )
        scenario.install_faults(
            FaultPlan(
                specs=[FaultSpec(kind="link-loss", rate=0.3)], seed=7
            )
        )
        for dst in destinations:
            engine.measure(dst)
        assert scenario.internet.faults.snapshot()["by_kind"][
            "link-loss"
        ] >= 1
        assert instr.events.by_kind().get("degrade.retry", 0) >= 1
