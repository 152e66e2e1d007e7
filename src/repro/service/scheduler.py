"""Request scheduling and admission control (Appendix A).

The deployed system rate-limits each user by *parallel reverse
traceroutes* and *measurements per day* — "similar to what RIPE Atlas
does".  :class:`RequestScheduler` makes the first limit real: jobs are
submitted to bounded per-user queues and multiplexed across a fixed
number of execution lanes, never running more than ``User.max_parallel``
of one user's measurements at a time.

:meth:`RequestScheduler.run` / :meth:`~RequestScheduler.step`
re-simulate a parallel deployment on the virtual clock.  Each of
``parallelism`` lanes carries a virtual timeline; the scheduler
repeatedly takes the earliest-free lane and admits the next job by
deterministic round-robin over users, skipping users at their parallel
cap at that instant.  Job durations come from the engine's own
virtual-clock accounting, so the resulting schedule (start/finish
times, makespan, throughput) is exactly what an N-worker deployment
would see — and byte-identical across runs.  Same-source jobs
admissible at the same instant run as one
:meth:`~repro.core.revtr.RevtrEngine.measure_many` group (group size
bounded by simultaneously-free lanes); a job with no same-source
company is a group of one.

Overload degrades into *typed* outcomes rather than exceptions: a full
per-user queue, an expired deadline, or an exhausted daily quota turn
into :class:`RejectReason` on the job and
``service_rejections_total{reason=...}`` metrics, so one saturated user
never kills anyone else's batch.  ``UNRESPONSIVE`` destinations are
optionally retried with exponential backoff.
"""

from __future__ import annotations

import enum
import itertools
from collections import deque
from dataclasses import dataclass
from typing import Any, Deque, Dict, List, Optional, Tuple

from repro.core.result import ReverseTracerouteResult, RevtrStatus
from repro.net.addr import Address
from repro.service.users import QuotaExceeded, User


class JobState(enum.Enum):
    """Lifecycle of one scheduled request."""

    QUEUED = "queued"
    DONE = "done"
    REJECTED = "rejected"


class RejectReason(enum.Enum):
    """Why a job was refused (typed; never raised at the caller)."""

    QUEUE_FULL = "queue-full"
    DEADLINE = "deadline"
    QUOTA = "quota"
    ERROR = "error"


#: Base backoff (virtual seconds) before the first retry of an
#: unresponsive destination; doubles per attempt.
RETRY_BACKOFF = 60.0


@dataclass
class SchedulerConfig:
    """Knobs for the request scheduler."""

    #: execution lanes
    parallelism: int = 4
    #: bounded per-user queue; submissions beyond it are rejected
    max_queue_per_user: int = 16
    #: max seconds a job may wait in queue before it is dropped
    #: (virtual seconds; ``None`` disables the deadline)
    deadline: Optional[float] = None
    #: re-run jobs whose destination was unresponsive up to this many
    #: extra times
    max_retries: int = 0


@dataclass
class Job:
    """One scheduled reverse-traceroute request."""

    id: int
    user: str
    dst: Address
    src: Address
    submitted_at: float = 0.0
    #: earliest virtual time the job may start (retry backoff)
    eligible_at: float = 0.0
    state: JobState = JobState.QUEUED
    reject_reason: Optional[RejectReason] = None
    result: Optional[ReverseTracerouteResult] = None
    error: Optional[str] = None
    attempts: int = 0
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    #: the job completed, but after its deadline had already passed
    deadline_exceeded: bool = False
    #: the quota day the job's start was charged against
    _charged_day: Optional[int] = None

    @property
    def queue_wait(self) -> Optional[float]:
        if self.started_at is None:
            return None
        return self.started_at - self.submitted_at


@dataclass
class SchedulerReport:
    """What a drained scheduler did, on the virtual timeline."""

    parallelism: int
    submitted: int
    completed: int
    rejected: Dict[str, int]
    retries: int
    deadline_overruns: int
    makespan: float
    throughput: float
    peak_inflight: Dict[str, int]
    statuses: Dict[str, int]
    #: jobs whose final result was partial (non-complete status but
    #: real reverse hops) — the graceful-degradation signal
    partial: int = 0

    def as_dict(self) -> Dict[str, Any]:
        doc = {
            "parallelism": self.parallelism,
            "submitted": self.submitted,
            "completed": self.completed,
            "rejected": dict(sorted(self.rejected.items())),
            "retries": self.retries,
            "deadline_overruns": self.deadline_overruns,
            "makespan_virtual_seconds": round(self.makespan, 6),
            "throughput_per_virtual_second": round(self.throughput, 6),
            "peak_inflight": dict(sorted(self.peak_inflight.items())),
            "statuses": dict(sorted(self.statuses.items())),
        }
        if self.partial:
            # Keyed in only when nonzero so fault-free reports keep
            # their exact shape.
            doc["partial_results"] = self.partial
        return doc


class RequestScheduler:
    """Admission control + multiplexing for a :class:`RevtrService`."""

    def __init__(self, service, config: Optional[SchedulerConfig] = None):
        self.service = service
        self.config = config if config is not None else SchedulerConfig()
        if self.config.parallelism < 1:
            raise ValueError("parallelism must be >= 1")
        self.obs = service.obs
        self.clock = service.prober.clock
        self.jobs: List[Job] = []
        self.retries = 0
        self.completed = 0
        self.deadline_overruns = 0
        self.rejections: Dict[str, int] = {}
        self.peak_inflight: Dict[str, int] = {}
        self._ids = itertools.count(1)
        self._queues: Dict[str, Deque[Job]] = {}
        #: jobs across every user's queue, kept where the queues change
        #: (submit, pick, retry requeue) so nothing re-sums them
        self._queued = 0
        self._users: Dict[str, User] = {}
        self._user_order: List[str] = []
        self._rr_index = 0
        # Lane timelines (created lazily at first step).
        self._lanes: Optional[List[float]] = None
        self._t0: Optional[float] = None
        #: per-user virtual finish times of admitted jobs (in-flight
        #: at instant t = finishes strictly greater than t)
        self._inflight_finish: Dict[str, List[float]] = {}

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------

    def submit(
        self,
        api_key: str,
        dst: Address,
        src: Address,
    ) -> Job:
        """Queue one request; returns the job (possibly already
        rejected with :attr:`RejectReason.QUEUE_FULL`)."""
        user = self.service.users.authenticate(api_key)
        job = Job(
            id=next(self._ids),
            user=user.name,
            dst=dst,
            src=src,
            submitted_at=self.clock.now(),
        )
        self.jobs.append(job)
        queue = self._queues.get(user.name)
        if queue is None:
            queue = deque()
            self._queues[user.name] = queue
            self._users[user.name] = user
            self._user_order.append(user.name)
            self._inflight_finish[user.name] = []
            self.peak_inflight[user.name] = 0
        if self.obs.enabled:
            self.obs.emit(
                "sched.submit",
                job=job.id,
                user=user.name,
                dst=str(dst),
            )
        if user.max_parallel < 1:
            self._reject(job, RejectReason.QUOTA)
            return job
        if len(queue) >= self.config.max_queue_per_user:
            self._reject(job, RejectReason.QUEUE_FULL)
            return job
        queue.append(job)
        self._queue_depth_changed(1)
        return job

    # ------------------------------------------------------------------
    # Shared bookkeeping
    # ------------------------------------------------------------------

    def _reject(self, job: Job, reason: RejectReason) -> None:
        job.state = JobState.REJECTED
        job.reject_reason = reason
        if reason is RejectReason.ERROR:
            # The engine failed past admission: the charge made at
            # start time bought nothing, so it goes back to the day it
            # counted against.  Every other reason rejects before (or
            # instead of) charging.
            self._users[job.user].refund(job._charged_day)
        self.rejections[reason.value] = (
            self.rejections.get(reason.value, 0) + 1
        )
        if self.obs.enabled:
            self.obs.inc("service_rejections_total", reason=reason.value)
            self.obs.emit(
                "sched.reject",
                job=job.id,
                user=job.user,
                reason=reason.value,
            )

    def _note_started(self, job: Job) -> None:
        """Queue-wait accounting at the instant a job starts running
        (observed runs only)."""
        wait = job.queue_wait
        if wait is not None:
            # Labelled by admission attempt so retry backoff shows up
            # as a separate (longer-wait) series.
            self.obs.observe(
                "service_queue_wait_seconds",
                wait,
                attempt=str(job.attempts),
            )
        self.obs.emit(
            "sched.start",
            job=job.id,
            user=job.user,
            attempt=job.attempts,
            queue_wait=wait,
        )

    def _queue_depth_changed(self, delta: int) -> None:
        self._queued += delta
        if self.obs.enabled:
            self.obs.set_gauge("service_queue_depth", self._queued)

    def _note_status(self, statuses: Dict[str, int], job: Job) -> None:
        if job.result is not None:
            key = job.result.status.value
            statuses[key] = statuses.get(key, 0) + 1

    def report(self) -> SchedulerReport:
        statuses: Dict[str, int] = {}
        for job in self.jobs:
            if job.state is JobState.DONE:
                self._note_status(statuses, job)
        makespan = 0.0
        if self._t0 is not None:
            finishes = [
                job.finished_at
                for job in self.jobs
                if job.finished_at is not None
            ]
            if finishes:
                makespan = max(finishes) - self._t0
        throughput = self.completed / makespan if makespan else 0.0
        partial = sum(
            1
            for job in self.jobs
            if job.result is not None and job.result.is_partial
        )
        return SchedulerReport(
            parallelism=self.config.parallelism,
            submitted=len(self.jobs),
            completed=self.completed,
            rejected=dict(self.rejections),
            retries=self.retries,
            deadline_overruns=self.deadline_overruns,
            makespan=makespan,
            throughput=throughput,
            peak_inflight=dict(self.peak_inflight),
            statuses=statuses,
            partial=partial,
        )

    # ------------------------------------------------------------------
    # Deterministic event simulation on the virtual clock
    # ------------------------------------------------------------------

    def run(self) -> SchedulerReport:
        """Drain every queue deterministically; returns the report."""
        while self.step() is not None:
            pass
        return self.report()

    def step(self) -> Optional[Job]:
        """Admit and execute the next job on the virtual timeline.

        Returns the job just processed (done, retried, or rejected),
        or ``None`` once every queue is empty.  Stepping one job at a
        time keeps the interleaving inspectable from tests.
        """
        if not self._queued:
            return None
        lanes = self._lanes
        if lanes is None:
            self._t0 = self.clock.now()
            lanes = self._lanes = [self._t0] * self.config.parallelism
        while True:
            # The earliest-free lane; of tied lanes, the lowest.
            t = min(lanes)
            lane = lanes.index(t)
            picked = self._pick(t)
            if picked is not None:
                break
            nxt = self._next_event_after(t)
            if nxt is None:
                # Defensive: cannot happen while queues are non-empty,
                # but a stall must not become an infinite loop.
                return None
            lanes[lane] = nxt
        return self._execute_group(picked[0], picked[1], lane, t)

    def _pick(
        self, t: float, src: Optional[Address] = None
    ) -> Optional[Tuple[Job, User]]:
        """Round-robin choice of the next admissible job at instant t,
        restricted to jobs toward *src* when given (one same-source
        group runs through one per-source engine)."""
        order = self._user_order
        count = len(order)
        queues = self._queues
        for offset in range(count):
            idx = (self._rr_index + offset) % count
            name = order[idx]
            queue = queues[name]
            if not queue:
                continue
            job = queue[0]
            if (src is not None and job.src != src) or job.eligible_at > t:
                continue
            user = self._users[name]
            if self._inflight_at(name, t) >= user.max_parallel:
                continue
            queue.popleft()
            self._rr_index = (idx + 1) % count
            self._queue_depth_changed(-1)
            return job, user
        return None

    def _inflight_at(self, name: str, t: float) -> int:
        """*name*'s jobs in flight at instant *t*: its finish list,
        rid of every finish not after *t*.  A list with none such is
        left as it is."""
        finishes = self._inflight_finish[name]
        if finishes and min(finishes) <= t:
            finishes[:] = [f for f in finishes if f > t]
        return len(finishes)

    def _next_event_after(self, t: float) -> Optional[float]:
        """Earliest future instant at which a queued job could start."""
        candidates: List[float] = []
        for name, queue in self._queues.items():
            if not queue:
                continue
            head = queue[0]
            if head.eligible_at > t:
                candidates.append(head.eligible_at)
            for f in self._inflight_finish[name]:
                if f > t:
                    candidates.append(f)
        return min(candidates) if candidates else None

    def _admit_virtual(self, job: Job, user: User, t: float) -> bool:
        """Start-time checks, per job of a group: deadline at start,
        then quota.  Returns False when the job was rejected."""
        job.started_at = t
        if self.obs.enabled:
            self._note_started(job)
        deadline = self.config.deadline
        if deadline is not None and t - job.submitted_at > deadline:
            self._reject(job, RejectReason.DEADLINE)
            return False
        try:
            job._charged_day = user.charge(t)
        except QuotaExceeded as exc:
            job.error = str(exc)
            self._reject(job, RejectReason.QUOTA)
            return False
        return True

    def _complete_virtual(
        self,
        job: Job,
        user: User,
        lane: int,
        t: float,
        result: ReverseTracerouteResult,
    ) -> Job:
        """Finish-side bookkeeping for a job started at instant *t*."""
        # Completion is the scheduler's natural heartbeat: tick the
        # telemetry time-series here, off the measurement hot path.
        # The not-due cost is one clock read plus a compare.
        sampler = self.obs.sampler
        if sampler is not None:
            sampler.maybe_sample()
        cfg = self.config
        job.result = result
        finish = t + result.duration
        job.finished_at = finish
        self._lanes[lane] = finish
        current = self._inflight_at(user.name, t) + 1
        if finish > t:
            # No later read is at an instant before *t* (lane times
            # only grow), so a finish at *t* is never in flight again.
            self._inflight_finish[user.name].append(finish)
        if current > self.peak_inflight[user.name]:
            self.peak_inflight[user.name] = current
        if self.obs.enabled:
            self.obs.set_gauge(
                "service_inflight", current, user=user.name
            )
        if (
            result.status is RevtrStatus.UNRESPONSIVE
            and job.attempts < cfg.max_retries
        ):
            job.attempts += 1
            job.eligible_at = finish + RETRY_BACKOFF * (
                2 ** (job.attempts - 1)
            )
            if (
                cfg.deadline is not None
                and job.eligible_at - job.submitted_at > cfg.deadline
            ):
                # The backoff alone already overshoots the queue-wait
                # deadline: requeuing would park a doomed job at the
                # head of the user's queue for the whole backoff (and
                # charge its dispatch against quota) only to reject it
                # at start time.  Reject now, keeping the partial
                # result of the last attempt on the job.
                self._reject(job, RejectReason.DEADLINE)
                return job
            job.state = JobState.QUEUED
            self._queues[user.name].append(job)
            self.retries += 1
            if self.obs.enabled:
                self.obs.inc(
                    "service_retries_total", attempt=str(job.attempts)
                )
                self.obs.emit(
                    "sched.retry",
                    job=job.id,
                    user=user.name,
                    attempt=job.attempts,
                    eligible_at=job.eligible_at,
                )
            self._queue_depth_changed(1)
            return job
        job.state = JobState.DONE
        self.completed += 1
        if self.obs.enabled:
            self.obs.emit(
                "sched.done",
                _mid=result.measurement_id,
                job=job.id,
                user=user.name,
                status=result.status.value,
            )
        if (
            cfg.deadline is not None
            and finish - job.submitted_at > cfg.deadline
        ):
            # It ran, but finished late: flagged on the job and
            # tallied, not retroactively cancelled.
            job.deadline_exceeded = True
            self.deadline_overruns += 1
        return job

    def _execute_group(
        self, job: Job, user: User, lane: int, t: float
    ) -> Job:
        """Fill every lane free at instant *t* with same-source
        admissible jobs and run them as one
        :meth:`~repro.core.revtr.RevtrEngine.measure_many` group.

        Admission semantics are per job (deadline/quota checks, typed
        rejections, retry scheduling), and so is the probing: a group is
        jobs started at one instant through one engine, sharing only
        that engine's caches.  Each job's virtual finish is
        ``t + its own duration`` — the group starts together, like N
        lanes of a real deployment hitting the same engine at once.
        """
        group: List[Tuple[Job, User, int]] = [(job, user, lane)]
        lanes = self._lanes
        # *t* is the earliest lane time (``step``), so another lane is
        # free at *t* only if it reads *t* as well.
        if lanes.count(t) > 1:
            inf = float("inf")
            reserved = self._inflight_finish
            # Reserve an in-flight slot per picked job so per-user
            # parallel caps hold across the whole group, not just the
            # first pick.
            reserved[user.name].append(inf)
            for other, free_at in enumerate(lanes):
                if other == lane or free_at > t:
                    continue
                picked = self._pick(t, job.src)
                if picked is None:
                    break
                reserved[picked[1].name].append(inf)
                group.append((picked[0], picked[1], other))
            for _job, _user, _lane in group:
                reserved[_user.name].remove(inf)
        admitted = [
            entry
            for entry in group
            if self._admit_virtual(entry[0], entry[1], t)
        ]
        if not admitted:
            return job
        try:
            engine = self.service._engine_for(job.src)
            results = self.service._measure_group(
                engine,
                [
                    (_job.dst, _user.name)
                    for _job, _user, _lane in admitted
                ],
            )
        except Exception as exc:  # typed, never kills the batch
            for _job, _user, _lane in admitted:
                _job.error = f"{type(exc).__name__}: {exc}"
                self._reject(_job, RejectReason.ERROR)
            return job
        for (_job, _user, _lane), result in zip(admitted, results):
            self._complete_virtual(_job, _user, _lane, t, result)
        return job
