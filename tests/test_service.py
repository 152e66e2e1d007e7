"""Tests for the service layer: users, quotas, bootstrap, API."""

import pytest

from repro.core.result import RevtrStatus
from repro.core.revtr import EngineConfig
from repro.experiments import Scenario
from repro.service import (
    MeasurementRequest,
    RejectReason,
    RevtrService,
    SchedulerConfig,
    SourceRegistry,
)
from repro.service.sources import BootstrapError
from repro.service.users import QuotaExceeded, UserDatabase
from repro.sim.clock import VirtualClock
from repro.topology import TopologyConfig


@pytest.fixture(scope="module")
def service(small_scenario):
    registry = SourceRegistry(
        small_scenario.internet,
        small_scenario.background_prober,
        small_scenario.atlas_vp_addrs,
        small_scenario.spoofer_addrs,
        atlas_size=15,
        seed=9,
    )
    return RevtrService(
        prober=small_scenario.online_prober,
        registry=registry,
        selector=small_scenario.selector("revtr2.0"),
        ip2as=small_scenario.ip2as,
        relationships=small_scenario.relationships,
        resolver=small_scenario.resolver,
    )


def archived_for(service, user_name):
    return [m for m in service.store if m.user == user_name]


def ensure_source(service, key, source):
    """Register *source* unless a test that ran earlier on the shared
    service already did; no test may take a registration on trust."""
    if source not in service.registry.sources:
        service.add_source(key, source)


class TestUsers:
    def test_add_and_authenticate(self):
        db = UserDatabase(VirtualClock())
        user = db.add_user("alice")
        assert db.authenticate(user.api_key) is user
        with pytest.raises(PermissionError):
            db.authenticate("wrong")

    def test_duplicate_name_rejected(self):
        db = UserDatabase(VirtualClock())
        db.add_user("alice")
        with pytest.raises(ValueError):
            db.add_user("alice")

    def test_daily_quota(self):
        clock = VirtualClock()
        db = UserDatabase(clock)
        user = db.add_user("bob", max_per_day=2)
        user.charge(clock.now())
        user.charge(clock.now())
        with pytest.raises(QuotaExceeded):
            user.charge(clock.now())
        # Quota resets the next (virtual) day.
        clock.advance(86_400)
        user.charge(clock.now())
        assert user.remaining_today(clock.now()) == 1


class TestBootstrap:
    def test_register_builds_atlas(self, service, small_scenario):
        key = service.add_user("carol").api_key
        source = small_scenario.sources()[5]
        registered = service.add_source(key, source)
        assert registered.report.rr_receivable
        assert registered.report.atlas_size > 0
        assert registered.report.rr_atlas_aliases > 0
        assert registered.report.duration > 0

    def test_unknown_host_rejected(self, service):
        key = service.add_user("dave").api_key
        with pytest.raises(BootstrapError):
            service.add_source(key, "203.0.113.50")

    def test_duplicate_source_rejected(self, service, small_scenario):
        key = service.add_user("erin").api_key
        source = small_scenario.sources()[2]
        service.add_source(key, source)
        with pytest.raises(ValueError):
            service.add_source(key, source)


class TestRequests:
    def test_request_flow(self, service, small_scenario):
        key = service.add_user("frank", max_per_day=50).api_key
        source = small_scenario.sources()[3]
        service.add_source(key, source)
        dsts = small_scenario.responsive_destinations(
            4, options_only=True
        )
        results = [
            service.request(MeasurementRequest(key, dst, source))
            for dst in dsts
        ]
        assert [m.result for m in archived_for(service, "frank")] == results
        assert any(
            r.status is RevtrStatus.COMPLETE for r in results
        )

    def test_quota_enforced(self, service, small_scenario):
        key = service.add_user("grace", max_per_day=1).api_key
        source = small_scenario.sources()[1]
        ensure_source(service, key, source)
        dst = small_scenario.responsive_destinations(1)[0]
        service.request(MeasurementRequest(key, dst, source))
        with pytest.raises(QuotaExceeded):
            service.request(MeasurementRequest(key, dst, source))

    def test_unregistered_source_rejected(self, service, small_scenario):
        user = service.add_user("heidi", max_per_day=10)
        dst = small_scenario.responsive_destinations(1)[0]
        with pytest.raises(KeyError):
            service.request(
                MeasurementRequest(user.api_key, dst, "203.0.113.10")
            )
        # A request no engine could take costs nothing.
        assert user.remaining_today(service.prober.clock.now()) == 10
        assert archived_for(service, "heidi") == []


class TestQuotaRollover:
    def test_rollover_via_remaining_today(self):
        clock = VirtualClock()
        db = UserDatabase(clock)
        user = db.add_user("ivy", max_per_day=5)
        user.charge(clock.now(), n=5)
        assert user.remaining_today(clock.now()) == 0
        # remaining_today itself must roll the day, not just charge.
        clock.advance(86_400)
        assert user.remaining_today(clock.now()) == 5

    def test_rollover_mid_charge_sequence(self):
        clock = VirtualClock()
        db = UserDatabase(clock)
        user = db.add_user("judy", max_per_day=3)
        clock.advance(86_400 - 1)
        user.charge(clock.now(), n=3)
        clock.advance(2)  # crosses the day boundary
        user.charge(clock.now(), n=3)
        assert user.remaining_today(clock.now()) == 0

    def test_refund_restores_quota_same_day(self):
        clock = VirtualClock()
        db = UserDatabase(clock)
        user = db.add_user("kate", max_per_day=4)
        user.charge(clock.now(), n=4)
        user.refund(clock.now(), n=2)
        assert user.remaining_today(clock.now()) == 2
        user.refund(clock.now(), n=10)  # clamped at zero used
        assert user.remaining_today(clock.now()) == 4


class TestBatchCharging:
    """A user's batch goes through the scheduler (`submit` per
    destination, then `run`): each job is charged when it starts, and
    a charge that bought no measurement comes back."""

    @staticmethod
    def _run_batch(service, user, dsts, source):
        scheduler = service.scheduler(SchedulerConfig(parallelism=1))
        jobs = [
            scheduler.submit(user.api_key, dst, source) for dst in dsts
        ]
        return jobs, scheduler.run()

    def test_engine_error_does_not_forfeit_remainder(
        self, service, small_scenario, monkeypatch
    ):
        # One job's engine error is typed onto that job: the rest of
        # the batch still runs, and the failed one is not paid for.
        user = service.add_user("leo", max_per_day=10)
        source = small_scenario.sources()[1]
        ensure_source(service, user.api_key, source)
        dsts = small_scenario.responsive_destinations(
            4, options_only=True
        )
        engine = service._engine_for(source)
        calls = {"n": 0}
        real_measure = engine.measure

        def failing_measure(dst):
            calls["n"] += 1
            if calls["n"] == 2:
                raise RuntimeError("engine blew up")
            return real_measure(dst)

        monkeypatch.setattr(engine, "measure", failing_measure)
        jobs, report = self._run_batch(service, user, dsts, source)
        assert [job.reject_reason for job in jobs] == [
            None, RejectReason.ERROR, None, None,
        ]
        assert "engine blew up" in jobs[1].error
        assert report.completed == 3
        now = service.prober.clock.now()
        assert user.remaining_today(now) == 7

    @staticmethod
    def _tiny_service(coalesce):
        """(service, user, source, 5 destinations) on a service of its
        own, batches coalesced or not."""
        scenario = Scenario(
            config=TopologyConfig.tiny(seed=3), seed=3, atlas_size=10
        )
        registry = SourceRegistry(
            scenario.internet,
            scenario.background_prober,
            scenario.atlas_vp_addrs,
            scenario.spoofer_addrs,
            atlas_size=10,
            seed=9,
        )
        service = RevtrService(
            prober=scenario.online_prober,
            registry=registry,
            selector=scenario.selector("revtr2.0"),
            ip2as=scenario.ip2as,
            relationships=scenario.relationships,
            resolver=scenario.resolver,
            engine_config=EngineConfig(coalesce_batches=coalesce),
        )
        source = scenario.sources()[0]
        service.add_source(service.add_user("owner").api_key, source)
        dsts = scenario.responsive_destinations(5, options_only=True)
        return service, service.add_user("batcher"), source, dsts

    @pytest.mark.parametrize("coalesce", [False, True])
    def test_quota_running_out_mid_batch_measures_what_it_charged(
        self, coalesce
    ):
        # 5 destinations against 3 remaining quota: exactly the three
        # that were charged are measured and archived, the other two
        # are typed QUOTA rejections that charged nothing.
        service, user, source, dsts = self._tiny_service(coalesce)
        user.max_per_day = 3
        jobs, report = self._run_batch(service, user, dsts, source)
        assert report.rejected == {"quota": 2}
        assert [
            m.result.dst for m in archived_for(service, "batcher")
        ] == dsts[:3]
        assert user.remaining_today(service.prober.clock.now()) == 0

    @pytest.mark.parametrize(
        "coalesce", [False, True], ids=["False-solo", "True-group"]
    )
    def test_engine_error_charges_nothing_that_was_not_attempted(
        self, coalesce
    ):
        # A source nobody registered: every job gets past admission
        # (and is charged) before the engine lookup raises, solo or as
        # one coalesced group.  Nothing ran, so nothing stays charged.
        service, user, source, dsts = self._tiny_service(coalesce)
        user.max_per_day = 10
        service.request(MeasurementRequest(user.api_key, dsts[0], source))
        jobs, report = self._run_batch(
            service, user, dsts[1:4], "203.0.113.10"
        )
        assert report.rejected == {"error": 3}
        assert all("KeyError" in job.error for job in jobs)
        now = service.prober.clock.now()
        assert user.remaining_today(now) == 9
        assert len(archived_for(service, "batcher")) == 1


class TestEngineInvalidation:
    def test_reregister_drops_stale_engine(
        self, service, small_scenario
    ):
        key = service.add_user("mike").api_key
        source = small_scenario.sources()[4]
        ensure_source(service, key, source)
        stale = service._engine_for(source)
        assert stale.atlas is service.registry.sources[source].atlas
        # Re-registering rebuilds the atlas; the cached engine must go.
        service.add_source(key, source, replace=True)
        fresh = service._engine_for(source)
        assert fresh is not stale
        assert fresh.atlas is service.registry.sources[source].atlas
        assert fresh.atlas is not stale.atlas

    def test_duplicate_without_replace_still_rejected(
        self, service, small_scenario
    ):
        key = service.add_user("nina").api_key
        source = small_scenario.sources()[4]
        ensure_source(service, key, source)
        with pytest.raises(ValueError):
            service.add_source(key, source)
