"""Tests for the request scheduler: admission control, determinism,
overload behavior, and same-source groups."""

import contextlib
import dataclasses
from collections import Counter
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.result import ReverseTracerouteResult, RevtrStatus
from repro.core.revtr import EngineConfig
from repro.experiments import Scenario
from repro.obs import Instrumentation
from repro.obs.instrument import NULL
from repro.service import (
    JobState,
    MeasurementRequest,
    RejectReason,
    RevtrService,
    SchedulerConfig,
    SourceRegistry,
)
from repro.service.scheduler import RETRY_BACKOFF, RequestScheduler
from repro.service.users import UserDatabase
from repro.sim.clock import VirtualClock
from repro.sim.faults import preset_plan
from repro.topology import TopologyConfig
from tests.helpers.reference_scheduler import (
    reference_scheduling,
    solo_path,
)


def build_service(scenario, instrumentation=None, atlas_size=15):
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
        instrumentation=instrumentation,
    )


@pytest.fixture(scope="module")
def sched_service(small_scenario):
    """A service with live metrics and one registered source."""
    instr = Instrumentation()
    instr.events.clock = small_scenario.clock
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


def test_queue_depth_gauge_is_the_queued_total_after_every_change():
    """``service_queue_depth`` is a running count kept where the queues
    change (submit, pick, retry requeue); after every submit and every
    step of a stream that retries and overflows a queue it still reads
    what summing every user's queue would."""
    scenario = Scenario(
        config=TopologyConfig.tiny(seed=3), seed=3, atlas_size=10
    )
    instr = Instrumentation()
    instr.events.clock = scenario.clock
    service = build_service(scenario, instrumentation=instr, atlas_size=10)
    users = [
        service.add_user(name, max_parallel=2, max_per_day=1000)
        for name in ("alpha", "beta")
    ]
    source = scenario.sources()[0]
    service.add_source(users[0].api_key, source)
    # Four per user into queues of three: the unresponsive one first,
    # so it is queued (and retried) and the last one overflows.
    dsts = [unresponsive_destination(scenario)]
    dsts += scenario.responsive_destinations(3, options_only=True)
    scheduler = service.scheduler(
        SchedulerConfig(parallelism=2, max_queue_per_user=3, max_retries=2)
    )
    gauge = instr.registry.gauge("service_queue_depth").labels()

    def queued():
        return sum(len(queue) for queue in scheduler._queues.values())

    for dst in dsts:
        for user in users:
            scheduler.submit(user.api_key, dst, source)
            assert gauge.value == queued()
    while scheduler.step() is not None:
        assert gauge.value == queued()
    assert gauge.value == 0
    assert scheduler.retries > 0
    assert scheduler.rejections["queue-full"] > 0


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
    """The grouped path (`_execute_group` -> `_measure_group`): the
    scheduler runs same-source jobs admissible at one instant as one
    ``measure_many`` group."""

    def _build(self, parallelism=4, **config):
        scenario = Scenario(
            config=TopologyConfig.tiny(seed=3), seed=3, atlas_size=10
        )
        service = build_service(scenario, atlas_size=10)
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
                    for dst, user in items
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

    def test_engine_failure_refunds_the_charge(self):
        """ERROR is the one rejection that comes after the charge: the
        job was admitted and paid for, then no engine could take it.
        The quota reads what it read before the request and nothing is
        archived."""
        service, scheduler, sources, dsts, groups = self._build()
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

    def test_failed_measurement_refunds_what_it_failed(self, monkeypatch):
        """The engine raises on one destination: the group fails as a
        unit, archives nothing and is refunded whole."""
        service, scheduler, sources, dsts, groups = self._build()
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
        assert report.completed == len(service.store) == 0
        assert report.rejected == {"error": 4}
        assert jobs[1].reject_reason is RejectReason.ERROR
        assert user.remaining_today(t0) == 10

    def test_without_same_source_company_equals_the_solo_path(self):
        """Two users, one source each, two lanes: at every instant the
        two admissible jobs go to different engines, so every group is
        a group of one and the schedule is the solo path's
        (``tests/helpers/reference_scheduler.py``)."""
        timelines, reports = [], []
        for solo in (False, True):
            with solo_path() if solo else contextlib.nullcontext():
                service, scheduler, sources, dsts, groups = self._build(
                    parallelism=2
                )
                for name, source in zip(("a", "b"), sources):
                    user = service.add_user(name, max_parallel=1)
                    for dst in dsts[:4]:
                        scheduler.submit(user.api_key, dst, source)
                reports.append(scheduler.run().as_dict())
            timelines.append(self._timeline(scheduler))
            if solo:
                assert groups == []
            else:
                assert len(groups) == 8
                assert all(len(group) == 1 for group in groups)
        assert reports[0] == reports[1]
        assert reports[0]["completed"] == 8
        assert timelines[0] == timelines[1]


#: a host that answers nothing: its jobs end UNRESPONSIVE and retry
DEAD = "203.0.113.9"


def _serve(seed, preset, retry_budget, max_retries, stream):
    """Serve *stream* on one lane of a fresh tiny deployment under
    *preset*: ``("submit", i)`` queues a job, ``("request", i)`` is a
    direct request, ``("run", None)`` drains the scheduler."""
    instr = Instrumentation()
    scenario = Scenario(
        config=TopologyConfig.tiny(seed=seed),
        seed=seed,
        atlas_size=8,
        instrumentation=instr,
    )
    door = scenario.front_door(
        EngineConfig(
            retry_budget=retry_budget, recheck_unresponsive=True
        ),
        [("ops", 2, 1_000)],
        SchedulerConfig(parallelism=1, max_retries=max_retries),
        plan=preset_plan(
            preset,
            seed=seed,
            vps=[
                vp for vp in scenario.spoofer_addrs
                if vp != scenario.sources()[0]
            ],
        ),
    )
    key, source = door.users[0].api_key, door.source
    dsts = scenario.responsive_destinations(6) + [DEAD]
    for op, index in stream:
        if op == "submit":
            door.scheduler.submit(key, dsts[index], source)
        elif op == "request":
            door.service.request(
                MeasurementRequest(api_key=key, dst=dsts[index], src=source)
            )
        else:
            door.scheduler.run()
    door.scheduler.run()
    engine = door.service._engine_for(source)
    return {
        "report": door.scheduler.report().as_dict(),
        "jobs": [
            (
                job.state, job.reject_reason, job.attempts,
                job.started_at, job.finished_at,
                None if job.result is None else job.result.to_dict(),
            )
            for job in door.scheduler.jobs
        ],
        "store": [
            (record.user, record.result.to_dict())
            for record in door.service.store
        ],
        "probes": dict(scenario.online_prober.counter.counts),
        "clock": scenario.clock.now(),
        "steps": engine.step_counts,
        "retries": engine.retry_counts,
        "segcache": dataclasses.asdict(engine.segcache.stats),
        "events": [
            {k: v for k, v in event.to_dict().items() if k != "wall"}
            for event in instr.events.events()
        ],
        "metrics": instr.registry.snapshot(),
    }


@settings(max_examples=20, deadline=None)
@given(
    seed=st.sampled_from((3, 9, 11)),
    preset=st.sampled_from(("none", "loss", "mixed")),
    retry_budget=st.sampled_from((0, 4)),
    max_retries=st.sampled_from((0, 2)),
    stream=st.lists(
        st.one_of(
            st.tuples(
                st.sampled_from(("submit", "request")),
                st.integers(0, 6),
            ),
            st.tuples(st.just("run"), st.none()),
        ),
        min_size=1,
        max_size=12,
    ),
)
# A measurement whose VP-health replacement makes two spoofed batches
# at one hop the same VP list: each batch is probed, waits out its
# spoof timeout and is recorded, as on the solo path.
@example(
    seed=11,
    preset="loss",
    retry_budget=4,
    max_retries=0,
    stream=[
        ("submit", 5), ("submit", 5), ("run", None), ("submit", 0),
        ("submit", 4), ("submit", 4), ("request", 4), ("request", 1),
        ("request", 3),
    ],
)
def test_a_group_of_one_is_the_solo_path(
    seed, preset, retry_budget, max_retries, stream
):
    """One lane, so every group is a group of one, and direct requests
    beside it: under faults, retries and repeats, ``measure_many`` of
    one destination is the solo path (``_execute_virtual`` ->
    ``_measure_one`` -> ``measure``, kept in
    ``tests/helpers/reference_scheduler.py``) in every observable,
    since ``measure_many`` is a loop over ``measure``."""
    grouped = _serve(seed, preset, retry_budget, max_retries, stream)
    with solo_path():
        solo = _serve(seed, preset, retry_budget, max_retries, stream)
    for name, value in grouped.items():
        assert value == solo[name], name


# ----------------------------------------------------------------------
# The step against the bookkeeping it replaced
# ----------------------------------------------------------------------

#: what one scripted measurement returns: (status, virtual duration),
#: or None for an engine that raises
outcomes = st.one_of(
    st.tuples(
        st.sampled_from(
            (
                RevtrStatus.COMPLETE,
                RevtrStatus.ABORTED_INTERDOMAIN,
                RevtrStatus.UNRESPONSIVE,
            )
        ),
        st.sampled_from((0.0, 0.0, 1.5, 4.0, 30.0, 90.0)),
    ),
    st.none(),
)


class _ScriptedService:
    """What a scheduler reads of a service, with every destination's
    measurements scripted: its *n*-th measurement returns the *n*-th
    outcome of its script (cycling), so two schedulers that call in
    the same order get the same results."""

    def __init__(self, clock, scripts):
        self.obs = NULL
        self.prober = SimpleNamespace(clock=clock)
        self.users = UserDatabase(clock)
        self._scripts = scripts
        self._calls = Counter()

    def _engine_for(self, src):
        return src

    def _measure_group(self, engine, items):
        results = []
        for dst, _user in items:
            script = self._scripts[dst]
            outcome = script[self._calls[dst] % len(script)]
            self._calls[dst] += 1
            if outcome is None:
                raise RuntimeError(f"engine failed toward {dst}")
            status, duration = outcome
            results.append(
                ReverseTracerouteResult(
                    src=engine, dst=dst, status=status, duration=duration
                )
            )
        return results


def _schedule(config, caps, scripts, stream):
    """Drive a scheduler over *stream* on a scripted service; returns
    every step's job and lanes, every completion's lane, and every
    job's fields."""
    clock = VirtualClock()
    service = _ScriptedService(clock, scripts)
    users = [
        service.users.add_user(
            f"u{index}", max_parallel=parallel, max_per_day=per_day
        )
        for index, (parallel, per_day) in enumerate(caps)
    ]
    scheduler = RequestScheduler(service, config)
    completions = []
    complete = scheduler._complete_virtual

    def recording(job, user, lane, t, result):
        completions.append((job.id, lane, t))
        return complete(job, user, lane, t, result)

    scheduler._complete_virtual = recording
    steps = []

    def step():
        job = scheduler.step()
        steps.append(
            (None if job is None else job.id, list(scheduler._lanes or ()))
        )
        return job

    for op in stream + [("run",)]:
        if op[0] == "submit":
            _, who, dst, src = op
            scheduler.submit(
                users[who % len(users)].api_key, f"d{dst}", f"s{src}"
            )
        elif op[0] == "advance":
            clock.advance(op[1])
        elif op[0] == "step":
            step()
        else:
            while step() is not None:
                pass
    return {
        "steps": steps,
        "completions": completions,
        "jobs": [
            (
                job.id, job.user, job.dst, job.src, job.state,
                job.reject_reason, job.attempts, job.submitted_at,
                job.eligible_at, job.started_at, job.finished_at,
                job.deadline_exceeded, job.error,
                None if job.result is None else job.result.status,
            )
            for job in scheduler.jobs
        ],
        "peak_inflight": dict(scheduler.peak_inflight),
        "report": scheduler.report().as_dict(),
    }


schedule_ops = st.lists(
    st.one_of(
        st.tuples(
            st.just("submit"),
            st.integers(0, 3),
            st.integers(0, 3),
            st.integers(0, 1),
        ),
        st.tuples(
            st.just("advance"), st.sampled_from((0.5, 10.0, 120.0))
        ),
        st.tuples(st.just("step")),
        st.tuples(st.just("run")),
    ),
    max_size=40,
)


@settings(max_examples=200, deadline=None)
@given(
    parallelism=st.integers(1, 4),
    max_queue=st.integers(1, 8),
    deadline=st.sampled_from((None, 45.0, 400.0)),
    max_retries=st.integers(0, 2),
    caps=st.lists(
        st.tuples(st.integers(0, 4), st.integers(1, 12)),
        min_size=1,
        max_size=4,
    ),
    scripts=st.lists(
        st.lists(outcomes, min_size=1, max_size=4), min_size=4, max_size=4
    ),
    stream=schedule_ops,
)
@example(
    parallelism=3,
    max_queue=8,
    deadline=None,
    max_retries=0,
    caps=[(4, 12)],
    scripts=[[(RevtrStatus.COMPLETE, 0.0)]] * 4,
    stream=[("submit", 0, 0, 0)],
)
# Two jobs of one user start together and the later-appended finishes
# first: at its finish the user's list holds a finish past the instant
# ahead of one that is not.
@example(
    parallelism=2,
    max_queue=8,
    deadline=None,
    max_retries=0,
    caps=[(2, 12)],
    scripts=[
        [(RevtrStatus.COMPLETE, 90.0)],
        [(RevtrStatus.COMPLETE, 1.5)],
        [(RevtrStatus.COMPLETE, 0.0)],
        [(RevtrStatus.COMPLETE, 0.0)],
    ],
    stream=[("submit", 0, 0, 0), ("submit", 0, 1, 0), ("submit", 0, 2, 0)],
)
def test_the_step_equals_the_bookkeeping_it_replaced(
    parallelism, max_queue, deadline, max_retries, caps, scripts, stream
):
    """Several users with their own parallel caps and quotas, results
    that take no time and results that do, unresponsive destinations
    retried with backoff, a queue-wait deadline and engines that raise:
    every step returns the job and leaves the lanes that the step kept
    in ``tests/helpers/reference_scheduler.py`` does (a ``min`` over a
    per-lane key, finish lists rebuilt at every pick and completion),
    and every job ends with its fields."""
    config = SchedulerConfig(
        parallelism=parallelism,
        max_queue_per_user=max_queue,
        deadline=deadline,
        max_retries=max_retries,
    )
    scripts = {f"d{index}": script for index, script in enumerate(scripts)}
    served = _schedule(config, caps, scripts, stream)
    with reference_scheduling():
        reference = _schedule(config, caps, scripts, stream)
    for name, value in served.items():
        assert value == reference[name], name
