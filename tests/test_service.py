"""Tests for the service layer: users, quotas, bootstrap, API."""

import pytest

from repro.core.result import RevtrStatus
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
        assert registered.report.atlas_size > 0
        assert registered.report.rr_atlas_aliases > 0
        assert registered.report.duration > 0

    def test_unknown_host_rejected(self, service):
        key = service.add_user("dave").api_key
        with pytest.raises(BootstrapError):
            service.add_source(key, "203.0.113.50")

    def test_host_dropping_rr_options_rejected(
        self, service, small_scenario
    ):
        """The bootstrap's first check: a host that answers pings but
        drops record-route packets cannot be a source."""
        key = service.add_user("dora").api_key
        host = next(
            host
            for host in small_scenario.internet.hosts.values()
            if host.responds_to_ping and not host.responds_to_options
        )
        with pytest.raises(BootstrapError, match="record-route"):
            service.add_source(key, host.addr)
        assert host.addr not in service.registry.sources

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

    def test_engine_error_refunds_the_charge(
        self, service, small_scenario, monkeypatch
    ):
        # The charge is made before measuring; a measurement the engine
        # raised on bought nothing, so the charge comes back.
        user = service.add_user("pia", max_per_day=10)
        source = small_scenario.sources()[1]
        ensure_source(service, user.api_key, source)

        def failing_measure(dst):
            raise RuntimeError("engine blew up")

        monkeypatch.setattr(
            service._engine_for(source), "measure", failing_measure
        )
        dst = small_scenario.responsive_destinations(1)[0]
        with pytest.raises(RuntimeError):
            service.request(MeasurementRequest(user.api_key, dst, source))
        assert user.remaining_today(service.prober.clock.now()) == 10
        assert archived_for(service, "pia") == []


class TestQuotaRollover:
    def test_rollover_via_remaining_today(self):
        clock = VirtualClock()
        db = UserDatabase(clock)
        user = db.add_user("ivy", max_per_day=5)
        for _ in range(5):
            user.charge(clock.now())
        assert user.remaining_today(clock.now()) == 0
        # remaining_today itself must roll the day, not just charge.
        clock.advance(86_400)
        assert user.remaining_today(clock.now()) == 5

    def test_rollover_mid_charge_sequence(self):
        clock = VirtualClock()
        db = UserDatabase(clock)
        user = db.add_user("judy", max_per_day=3)
        clock.advance(86_400 - 1)
        for _ in range(3):
            user.charge(clock.now())
        clock.advance(2)  # crosses the day boundary
        for _ in range(3):
            user.charge(clock.now())
        assert user.remaining_today(clock.now()) == 0

    def test_refund_restores_quota_same_day(self):
        clock = VirtualClock()
        db = UserDatabase(clock)
        user = db.add_user("kate", max_per_day=4)
        days = [user.charge(clock.now()) for _ in range(4)]
        user.refund(days[0])
        user.refund(days[1])
        assert user.remaining_today(clock.now()) == 2
        for _ in range(10):
            user.refund(days[0])  # clamped at zero used
        assert user.remaining_today(clock.now()) == 4


class TestQuotaDayMovesForward:
    def test_an_earlier_dated_charge_counts_against_today(self):
        # The scheduler charges at lane time, which after its first run
        # lags the serial clock a direct request charges at.  A charge
        # dated before the user's current day counts against that day
        # instead of reopening an earlier one with a fresh quota.
        scenario = Scenario(
            config=TopologyConfig.tiny(seed=3), seed=3, atlas_size=10
        )
        service = scenario.service()
        user = service.add_user("mia", max_per_day=2)
        source = scenario.sources()[0]
        service.add_source(user.api_key, source)
        dsts = iter(scenario.responsive_destinations(5, options_only=True))
        scheduler = service.scheduler(SchedulerConfig(parallelism=1))

        def scheduled():
            job = scheduler.submit(user.api_key, next(dsts), source)
            scheduler.run()
            return job

        def direct():
            request = MeasurementRequest(user.api_key, next(dsts), source)
            try:
                service.request(request)
            except QuotaExceeded:
                return False
            return True

        first = scheduled()
        assert first.reject_reason is None
        scenario.clock.advance(86_400)
        before = len(archived_for(service, "mia"))
        outcomes = [direct(), direct(), scheduled(), direct()]
        assert len(archived_for(service, "mia")) - before == 2
        assert outcomes[:2] == [True, True]
        assert outcomes[2].reject_reason is RejectReason.QUOTA
        assert outcomes[3] is False

    def test_a_refund_dated_before_today_returns_nothing(self):
        clock = VirtualClock()
        user = UserDatabase(clock).add_user("noor", max_per_day=2)
        yesterday = user.charge(clock.now())
        clock.advance(86_400)
        user.charge(clock.now())
        user.charge(clock.now())
        user.refund(yesterday)
        assert user.remaining_today(clock.now()) == 0

    def test_an_error_refund_at_lane_time_returns_to_today(
        self, monkeypatch
    ):
        # After its first run the scheduler's lanes lag the serial
        # clock, so a job it starts is charged at a time dated before
        # today and counted against today.  When its engine raises, the
        # refund must come back to today, not to the lane time's day.
        scenario = Scenario(
            config=TopologyConfig.tiny(seed=3), seed=3, atlas_size=10
        )
        service = scenario.service()
        user = service.add_user("omar", max_per_day=3)
        source = scenario.sources()[0]
        service.add_source(user.api_key, source)
        dsts = iter(scenario.responsive_destinations(3, options_only=True))
        scheduler = service.scheduler(SchedulerConfig(parallelism=1))
        scheduler.submit(user.api_key, next(dsts), source)
        scheduler.run()
        scenario.clock.advance(86_400)
        service.request(MeasurementRequest(user.api_key, next(dsts), source))

        def failing_measure(dst):
            raise RuntimeError("engine blew up")

        monkeypatch.setattr(
            service._engine_for(source), "measure", failing_measure
        )
        job = scheduler.submit(user.api_key, next(dsts), source)
        scheduler.run()
        assert job.reject_reason is RejectReason.ERROR
        assert job.started_at < scenario.clock.now() - 86_400 / 2
        assert user.remaining_today(scenario.clock.now()) == 2


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
    def _tiny_service():
        """(service, user, source, 5 destinations) on a service of its
        own."""
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
        )
        source = scenario.sources()[0]
        service.add_source(service.add_user("owner").api_key, source)
        dsts = scenario.responsive_destinations(5, options_only=True)
        return service, service.add_user("batcher"), source, dsts

    def test_quota_running_out_mid_batch_measures_what_it_charged(self):
        # 5 destinations against 3 remaining quota: exactly the three
        # that were charged are measured and archived, the other two
        # are typed QUOTA rejections that charged nothing.
        service, user, source, dsts = self._tiny_service()
        user.max_per_day = 3
        jobs, report = self._run_batch(service, user, dsts, source)
        assert report.rejected == {"quota": 2}
        assert [
            m.result.dst for m in archived_for(service, "batcher")
        ] == dsts[:3]
        assert user.remaining_today(service.prober.clock.now()) == 0

    def test_engine_error_charges_nothing_that_was_not_attempted(self):
        # A source nobody registered: every job gets past admission
        # (and is charged) before the engine lookup raises.  Nothing
        # ran, so nothing stays charged.
        service, user, source, dsts = self._tiny_service()
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
    def test_duplicate_without_replace_still_rejected(
        self, service, small_scenario
    ):
        key = service.add_user("nina").api_key
        source = small_scenario.sources()[4]
        ensure_source(service, key, source)
        with pytest.raises(ValueError):
            service.add_source(key, source)
