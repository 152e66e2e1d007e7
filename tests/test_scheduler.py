"""Tests for the request scheduler: admission control, determinism,
overload behavior, and coalesced same-source groups."""

import pytest

from repro.core.result import RevtrStatus
from repro.core.revtr import EngineConfig
from repro.experiments import Scenario
from repro.obs import Instrumentation
from repro.service import (
    JobState,
    RejectReason,
    RevtrService,
    SchedulerConfig,
    SourceRegistry,
)
from repro.service.scheduler import RETRY_BACKOFF
from repro.topology import TopologyConfig


def build_service(
    scenario, instrumentation=None, atlas_size=15, engine_config=None
):
    registry = SourceRegistry(
        scenario.internet,
        scenario.background_prober,
        scenario.atlas_vp_addrs,
        scenario.spoofer_addrs,
        atlas_size=atlas_size,
        seed=13,
    )
    return RevtrService(
        prober=scenario.online_prober,
        registry=registry,
        selector=scenario.selector("revtr2.0"),
        ip2as=scenario.ip2as,
        relationships=scenario.relationships,
        resolver=scenario.resolver,
        engine_config=engine_config,
        instrumentation=instrumentation,
    )


@pytest.fixture(scope="module")
def sched_service(small_scenario):
    """A service with live metrics and one registered source."""
    instr = Instrumentation(clock=small_scenario.clock)
    service = build_service(small_scenario, instrumentation=instr)
    owner = service.add_user("owner", max_per_day=100_000)
    source = small_scenario.sources()[5]
    service.add_source(owner.api_key, source)
    return service, source, instr


def unresponsive_destination(scenario):
    hosts = sorted(
        host.addr
        for host in scenario.internet.hosts.values()
        if not host.responds_to_ping and not host.is_vantage_point
    )
    assert hosts, "scenario has no unresponsive host"
    return hosts[0]


class TestAdmissionControl:
    def test_max_parallel_enforced(self, sched_service, small_scenario):
        service, source, instr = sched_service
        user = service.add_user(
            "capped", max_parallel=2, max_per_day=1000
        )
        dsts = small_scenario.responsive_destinations(
            10, options_only=True
        )
        scheduler = service.scheduler(
            SchedulerConfig(parallelism=8, max_queue_per_user=16)
        )
        for dst in dsts:
            scheduler.submit(user.api_key, dst, source)
        # Step the first two admissions: both start at t0, so the
        # in-flight gauge must read exactly the cap mid-run.
        scheduler.step()
        scheduler.step()
        gauge = (
            instr.registry.gauge("service_inflight")
            .labels(user="capped")
            .value
        )
        assert gauge == 2.0
        report = scheduler.run()
        assert report.completed == 10
        # Despite 8 lanes, the user's cap kept in-flight at 2.
        assert report.peak_inflight["capped"] == 2

    def test_queue_full_is_typed_not_raised(
        self, sched_service, small_scenario
    ):
        service, source, instr = sched_service
        user = service.add_user(
            "bursty", max_parallel=4, max_per_day=1000
        )
        dsts = small_scenario.responsive_destinations(
            8, options_only=True
        )
        scheduler = service.scheduler(
            SchedulerConfig(parallelism=2, max_queue_per_user=3)
        )
        jobs = [
            scheduler.submit(user.api_key, dst, source) for dst in dsts
        ]
        rejected = [
            j for j in jobs if j.state is JobState.REJECTED
        ]
        assert len(rejected) == 5
        assert all(
            j.reject_reason is RejectReason.QUEUE_FULL
            for j in rejected
        )
        report = scheduler.run()
        assert report.completed == 3
        assert report.rejected["queue-full"] == 5
        # Saturation loses nothing: every job is served or refused.
        assert (
            report.completed + sum(report.rejected.values())
            == report.submitted
        )
        counter = (
            instr.registry.counter("service_rejections_total")
            .labels(reason="queue-full")
            .value
        )
        assert counter >= 5

    def test_deadline_rejects_late_starters(
        self, sched_service, small_scenario
    ):
        service, source, _ = sched_service
        user = service.add_user(
            "hurried", max_parallel=1, max_per_day=1000
        )
        dsts = small_scenario.responsive_destinations(
            4, options_only=True
        )
        scheduler = service.scheduler(
            SchedulerConfig(
                parallelism=4, max_queue_per_user=16, deadline=0.01
            )
        )
        jobs = [
            scheduler.submit(user.api_key, dst, source) for dst in dsts
        ]
        report = scheduler.run()
        # max_parallel=1 serialises the user; only the first job can
        # start within the deadline, the rest waited too long.
        assert jobs[0].state is JobState.DONE
        assert all(
            j.state is JobState.REJECTED
            and j.reject_reason is RejectReason.DEADLINE
            for j in jobs[1:]
        )
        assert report.rejected["deadline"] == 3

    def test_quota_exhaustion_is_typed(
        self, sched_service, small_scenario
    ):
        service, source, _ = sched_service
        user = service.add_user(
            "frugal", max_parallel=4, max_per_day=2
        )
        dsts = small_scenario.responsive_destinations(
            5, options_only=True
        )
        scheduler = service.scheduler(SchedulerConfig(parallelism=2))
        jobs = [
            scheduler.submit(user.api_key, dst, source) for dst in dsts
        ]
        report = scheduler.run()
        assert report.completed == 2
        assert report.rejected["quota"] == 3
        assert [j.state for j in jobs].count(JobState.DONE) == 2

    def test_retry_with_backoff_for_unresponsive(
        self, sched_service, small_scenario
    ):
        service, source, _ = sched_service
        user = service.add_user(
            "patient", max_parallel=2, max_per_day=1000
        )
        dst = unresponsive_destination(small_scenario)
        scheduler = service.scheduler(
            SchedulerConfig(parallelism=2, max_retries=2)
        )
        job = scheduler.submit(user.api_key, dst, source)
        report = scheduler.run()
        assert job.state is JobState.DONE
        assert job.result.status is RevtrStatus.UNRESPONSIVE
        assert job.attempts == 2
        assert report.retries == 2
        # The final attempt started no earlier than the exponential
        # backoff schedule allows (60 then 120 seconds).
        assert job.started_at >= job.submitted_at + 3 * RETRY_BACKOFF


class TestDeterminism:
    def _build(self, parallelism=4):
        scenario = Scenario(
            config=TopologyConfig.tiny(seed=3), seed=3, atlas_size=10
        )
        service = build_service(scenario, atlas_size=10)
        alpha = service.add_user(
            "alpha", max_parallel=2, max_per_day=1000
        )
        beta = service.add_user(
            "beta", max_parallel=3, max_per_day=1000
        )
        source = scenario.sources()[0]
        service.add_source(alpha.api_key, source)
        dsts = scenario.responsive_destinations(6, options_only=True)
        scheduler = service.scheduler(
            SchedulerConfig(
                parallelism=parallelism, max_queue_per_user=16
            )
        )
        for dst in dsts:
            scheduler.submit(alpha.api_key, dst, source)
            scheduler.submit(beta.api_key, dst, source)
        return scheduler

    def _run_once(self):
        scheduler = self._build()
        scheduler.run()
        return [
            (
                job.user,
                job.dst,
                job.state.value,
                round(job.started_at, 9),
                round(job.finished_at, 9)
                if job.finished_at is not None
                else None,
            )
            for job in scheduler.jobs
        ]

    def test_round_robin_schedule_is_reproducible(self):
        assert self._run_once() == self._run_once()

    def test_lanes_beat_sequential_on_the_virtual_clock(self):
        sequential = self._build(parallelism=1).run()
        scheduler = self._build(parallelism=4)
        laned = scheduler.run()
        assert laned.completed == sequential.completed == 12
        assert len(scheduler.service.store) == laned.completed
        assert laned.makespan < sequential.makespan
        assert laned.throughput > sequential.throughput

    def test_round_robin_alternates_users(self):
        scheduler = self._build()
        # Admission order (observed via step) alternates alpha/beta —
        # round-robin, not drain-one-user-first.
        admitted = [scheduler.step().user for _ in range(4)]
        assert admitted == ["alpha", "beta", "alpha", "beta"]
        scheduler.run()


class TestDoomedRetry:
    """A retry whose backoff alone overshoots the deadline is rejected
    at requeue time (typed DEADLINE), not parked in the queue to be
    rejected after the whole backoff has been waited out."""

    def _config(self):
        return SchedulerConfig(
            parallelism=2,
            max_retries=2,
            deadline=RETRY_BACKOFF,
        )

    def _check(self, report, doomed, healthy):
        assert doomed.state is JobState.REJECTED
        assert doomed.reject_reason is RejectReason.DEADLINE
        assert report.rejected["deadline"] == 1
        # The retry was never enqueued: no retry counted, no second
        # attempt executed, no wait to the backoff horizon.
        assert report.retries == 0
        assert doomed.attempts == 1
        assert (
            doomed.finished_at - doomed.submitted_at
            < RETRY_BACKOFF
        )
        # The last attempt's result survives on the rejected job.
        assert doomed.result is not None
        assert doomed.result.status is RevtrStatus.UNRESPONSIVE
        # Unrelated work is untouched.
        assert healthy.state is JobState.DONE

    def test_virtual_mode(self, sched_service, small_scenario):
        service, source, _ = sched_service
        user = service.add_user(
            "doomed-v", max_parallel=2, max_per_day=1000
        )
        dead = unresponsive_destination(small_scenario)
        alive = small_scenario.responsive_destinations(
            1, options_only=True
        )[0]
        scheduler = service.scheduler(self._config())
        doomed = scheduler.submit(user.api_key, dead, source)
        healthy = scheduler.submit(user.api_key, alive, source)
        report = scheduler.run()
        self._check(report, doomed, healthy)


class TestCoalescedGroups:
    """The grouped path (`_execute_group` -> `_measure_group`): a
    service whose engine config coalesces batches runs same-source jobs
    admissible at one instant as one ``measure_many`` group."""

    def _build(
        self, coalesce=True, parallelism=4, instrumentation=None, **config
    ):
        scenario = Scenario(
            config=TopologyConfig.tiny(seed=3), seed=3, atlas_size=10
        )
        service = build_service(
            scenario,
            instrumentation=instrumentation,
            atlas_size=10,
            engine_config=EngineConfig(coalesce_batches=coalesce),
        )
        owner = service.add_user("owner")
        sources = scenario.sources()[:2]
        for source in sources:
            service.add_source(owner.api_key, source)
        dsts = scenario.responsive_destinations(8, options_only=True)
        scheduler = service.scheduler(
            SchedulerConfig(parallelism=parallelism, **config)
        )
        # Every group the scheduler hands the service, as job lists.
        groups = []
        measure_group = service._measure_group

        def recording(engine, items):
            queued = {
                (job.user, job.dst, job.src): job
                for job in scheduler.jobs
                if job.result is None and job.reject_reason is None
            }
            groups.append(
                [
                    queued[(user, dst, engine.source)]
                    for dst, user, _ in items
                ]
            )
            return measure_group(engine, items)

        service._measure_group = recording
        return service, scheduler, sources, dsts, groups

    @staticmethod
    def _timeline(scheduler):
        return [
            (
                job.user,
                job.dst,
                job.state.value,
                job.started_at,
                job.finished_at,
                None if job.result is None else job.result.addresses(),
            )
            for job in scheduler.jobs
        ]

    def test_parallel_cap_holds_inside_a_group(self):
        service, scheduler, sources, dsts, groups = self._build()
        solo = service.add_user("solo", max_parallel=1)
        wide = service.add_user("wide", max_parallel=4)
        for dst in dsts[:3]:
            scheduler.submit(solo.api_key, dst, sources[0])
        for dst in dsts[3:8]:
            scheduler.submit(wide.api_key, dst, sources[0])
        report = scheduler.run()
        assert report.completed == 8
        # The first instant fills all four lanes: solo's head job and
        # three of wide's — never solo's second job beside its first.
        assert [job.user for job in groups[0]] == [
            "solo", "wide", "wide", "wide",
        ]
        for group in groups:
            assert [job.user for job in group].count("solo") <= 1
        assert report.peak_inflight == {"solo": 1, "wide": 4}

    def test_group_starts_together_and_finishes_apart(self):
        service, scheduler, sources, dsts, groups = self._build()
        users = [
            service.add_user(f"u{i}", max_parallel=2) for i in range(3)
        ]
        for index, dst in enumerate(dsts):
            scheduler.submit(
                users[index % 3].api_key, dst, sources[0]
            )
        scheduler.run()
        assert max(len(group) for group in groups) > 1
        durations = set()
        for group in groups:
            start = group[0].started_at
            for job in group:
                assert job.started_at == start
                assert job.finished_at == start + job.result.duration
                durations.add(job.result.duration)
        # Not one shared finish: each job keeps its own duration.
        assert len(durations) > 1

    def test_group_runs_under_one_span(self):
        instr = Instrumentation()
        service, scheduler, sources, dsts, groups = self._build(
            instrumentation=instr
        )
        user = service.add_user("u", max_parallel=4)
        for dst in dsts:
            scheduler.submit(user.api_key, dst, sources[0])
        scheduler.run()
        traces = list(instr.tracer.traces)
        # One trace per group, its measurements nested under it: the
        # group executes as a unit, not as per-request spans.
        assert [trace.name for trace in traces] == [
            "service.request_group"
        ] * len(groups)
        assert max(len(group) for group in groups) > 1
        for trace, group in zip(traces, groups):
            assert trace.attrs["size"] == len(group)
            assert len(trace.find("revtr.measure")) == len(group)

    def test_failed_admission_rejects_one_job_not_its_group(self):
        service, scheduler, sources, dsts, groups = self._build(
            deadline=5.0
        )
        late = service.add_user("late", max_parallel=1)
        frugal = service.add_user("frugal", max_parallel=4, max_per_day=1)
        rich = service.add_user("rich", max_parallel=4)
        overdue = scheduler.submit(late.api_key, dsts[0], sources[0])
        # Everything else is submitted 10 s later, so only `overdue`
        # has out-waited the deadline when the first instant comes.
        service.prober.clock.advance(10.0)
        paid = scheduler.submit(frugal.api_key, dsts[1], sources[0])
        unpaid = scheduler.submit(frugal.api_key, dsts[2], sources[0])
        sibling = scheduler.submit(rich.api_key, dsts[3], sources[0])
        t0 = service.prober.clock.now()
        assert scheduler.step() is overdue
        # One instant, one group of four picked; two fail admission.
        assert [job.started_at for job in scheduler.jobs] == [t0] * 4
        assert overdue.reject_reason is RejectReason.DEADLINE
        assert unpaid.reject_reason is RejectReason.QUOTA
        assert overdue.result is None and unpaid.result is None
        assert groups == [[paid, sibling]]
        assert paid.state is sibling.state is JobState.DONE
        # A rejection at admission charged nothing, so refunds nothing.
        assert frugal.remaining_today(t0) == 0
        assert late.remaining_today(t0) == late.max_per_day
        report = scheduler.run()
        assert report.completed == 2
        assert report.rejected == {"deadline": 1, "quota": 1}

    @pytest.mark.parametrize("coalesce", [False, True])
    def test_engine_failure_refunds_the_charge(self, coalesce):
        """ERROR is the one rejection that comes after the charge: the
        job was admitted and paid for, then no engine could take it.
        Solo or as one coalesced group, the quota reads what it read
        before the request and nothing is archived."""
        service, scheduler, sources, dsts, groups = self._build(
            coalesce=coalesce
        )
        user = service.add_user("u", max_parallel=4, max_per_day=10)
        t0 = service.prober.clock.now()
        jobs = [
            scheduler.submit(user.api_key, dst, "203.0.113.10")
            for dst in dsts[:3]
        ]
        report = scheduler.run()
        assert report.rejected == {"error": 3}
        assert all(job.error.startswith("KeyError") for job in jobs)
        assert user.remaining_today(t0) == 10
        assert len(service.store) == 0

    @pytest.mark.parametrize("coalesce", [False, True])
    def test_failed_measurement_refunds_what_it_failed(
        self, coalesce, monkeypatch
    ):
        """The engine raises on one destination.  Job by job that is
        one refund beside three paid measurements; a coalesced group
        fails as a unit, archives nothing and is refunded whole."""
        service, scheduler, sources, dsts, groups = self._build(
            coalesce=coalesce
        )
        engine = service._engine_for(sources[0])
        real_measure = engine.measure

        def failing_measure(dst):
            if dst == dsts[1]:
                raise RuntimeError("engine blew up")
            return real_measure(dst)

        monkeypatch.setattr(engine, "measure", failing_measure)
        user = service.add_user("u", max_parallel=4, max_per_day=10)
        t0 = service.prober.clock.now()
        jobs = [
            scheduler.submit(user.api_key, dst, sources[0])
            for dst in dsts[:4]
        ]
        report = scheduler.run()
        done = 0 if coalesce else 3
        assert report.completed == len(service.store) == done
        assert report.rejected == {"error": 4 - done}
        assert jobs[1].reject_reason is RejectReason.ERROR
        assert user.remaining_today(t0) == 10 - done

    def test_without_same_source_company_equals_the_solo_path(self):
        """Two users, one source each, two lanes: at every instant the
        two admissible jobs go to different engines, so every group is
        a group of one and the schedule is the uncoalesced one."""
        timelines, reports = [], []
        for coalesce in (True, False):
            service, scheduler, sources, dsts, groups = self._build(
                coalesce=coalesce, parallelism=2
            )
            for name, source in zip(("a", "b"), sources):
                user = service.add_user(name, max_parallel=1)
                for dst in dsts[:4]:
                    scheduler.submit(user.api_key, dst, source)
            reports.append(scheduler.run().as_dict())
            timelines.append(self._timeline(scheduler))
            if coalesce:
                assert len(groups) == 8
                assert all(len(group) == 1 for group in groups)
            else:
                assert groups == []
        assert reports[0] == reports[1]
        assert reports[0]["completed"] == 8
        assert timelines[0] == timelines[1]
