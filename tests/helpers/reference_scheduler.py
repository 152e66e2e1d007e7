"""Reference scheduling: the solo path and the per-step bookkeeping,
verbatim.

Until the service always amortized, ``EngineConfig.coalesce_batches``
chose between two ways of running a scheduled job: off, the scheduler
ran each job alone (``RequestScheduler._execute_virtual``) through
``RevtrService._measure_one``, one :meth:`RevtrEngine.measure` per
request; on, it ran same-source jobs admissible at one instant as one
``measure_many`` group (``_execute_group`` -> ``_measure_group``).
``src/`` keeps only the group path, and a direct
``RevtrService.request`` is a group of one.  The solo path is kept
here, unedited, so ``tests/test_scheduler.py`` can require a group
with no same-source company to be that path field for field.

:func:`reference_scheduling` patches in the scheduler's step as it was
before it stopped paying per step for what did not change: the lane
pick as a ``min`` over a per-lane key lambda, every user's in-flight
finish list rebuilt at each pick and completion, the group's slot
reservations made and undone when no other lane is free, and the
sampler tick, start accounting and queued test behind a method call
each.  ``tests/test_scheduler.py`` requires the scheduler to produce
the job sequence these produce, field for field.
Test-only: nothing under ``src/`` imports it.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, List, Optional, Tuple

from repro.core.result import ReverseTracerouteResult, RevtrStatus
from repro.core.revtr import RevtrEngine
from repro.net.addr import Address
from repro.service.api import MeasurementRequest, RevtrService
from repro.service.scheduler import (
    RETRY_BACKOFF,
    Job,
    JobState,
    RejectReason,
    RequestScheduler,
)
from repro.service.users import QuotaExceeded, User


@contextmanager
def solo_path() -> Iterator[None]:
    """Inside the block, schedulers run every job alone and direct
    requests call ``measure``: the path before groups were the only
    one."""
    saved = (
        RequestScheduler._execute_group,
        RevtrService.request,
    )
    RequestScheduler._execute_group = _execute_virtual
    RevtrService._measure_one = _measure_one
    RevtrService.request = request
    try:
        yield
    finally:
        RequestScheduler._execute_group, RevtrService.request = saved
        del RevtrService._measure_one


def _execute_virtual(
    self, job: Job, user: User, lane: int, t: float
) -> Job:
    if not self._admit_virtual(job, user, t):
        return job
    try:
        engine = self.service._engine_for(job.src)
        result = self.service._measure_one(
            engine, job.dst, user.name
        )
    except Exception as exc:  # typed, never kills the batch
        job.error = f"{type(exc).__name__}: {exc}"
        self._reject(job, RejectReason.ERROR)
        return job
    return self._complete_virtual(job, user, lane, t, result)


def _measure_one(
    self, engine: RevtrEngine, dst: Address, user_name: str
) -> ReverseTracerouteResult:
    """Run one measurement with service-level accounting."""
    result = engine.measure(dst)
    self._account(engine, result, dst, user_name)
    return result


def request(
    self, request: MeasurementRequest
) -> ReverseTracerouteResult:
    """Execute one authenticated reverse-traceroute request."""
    user = self.users.authenticate(request.api_key)
    # Resolved before the charge: an unregistered source raises
    # here and costs the user nothing.
    engine = self._engine_for(request.src)
    user.charge(self.prober.clock.now())
    return self._measure_one(
        engine, request.dst, user.name
    )


#: The methods :func:`reference_scheduling` patches in, by name.
_STEP_METHODS = (
    "_note_started",
    "_tick_sampler",
    "_any_queued",
    "step",
    "_pick",
    "_inflight_at",
    "_admit_virtual",
    "_complete_virtual",
    "_execute_group",
)


@contextmanager
def reference_scheduling() -> Iterator[None]:
    """Inside the block, schedulers step, pick, admit and complete as
    below.  Methods ``src/`` no longer has are removed again on exit."""
    saved = {
        name: RequestScheduler.__dict__.get(name) for name in _STEP_METHODS
    }
    for name in _STEP_METHODS:
        setattr(RequestScheduler, name, globals()[name])
    try:
        yield
    finally:
        for name, method in saved.items():
            if method is None:
                delattr(RequestScheduler, name)
            else:
                setattr(RequestScheduler, name, method)


def _note_started(self, job: Job) -> None:
    """Queue-wait accounting at the instant a job starts running."""
    if not self.obs.enabled:
        return
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


def _tick_sampler(self) -> None:
    # Completion is the scheduler's natural heartbeat: tick the
    # telemetry time-series here, off the measurement hot path.
    # The not-due cost is one clock read plus a compare.
    sampler = self.obs.sampler
    if sampler is not None:
        sampler.maybe_sample()


def _any_queued(self) -> bool:
    return self._queued > 0


def step(self) -> Optional[Job]:
    """Admit and execute the next job on the virtual timeline.

    Returns the job just processed (done, retried, or rejected),
    or ``None`` once every queue is empty.  Stepping one job at a
    time keeps the interleaving inspectable from tests.
    """
    if not self._any_queued():
        return None
    if self._lanes is None:
        self._t0 = self.clock.now()
        self._lanes = [self._t0] * self.config.parallelism
    while True:
        lane = min(
            range(len(self._lanes)),
            key=lambda i: (self._lanes[i], i),
        )
        t = self._lanes[lane]
        picked = self._pick(t)
        if picked is not None:
            job, user = picked
            break
        nxt = self._next_event_after(t)
        if nxt is None:
            # Defensive: cannot happen while queues are non-empty,
            # but a stall must not become an infinite loop.
            return None
        self._lanes[lane] = nxt
    return self._execute_group(job, user, lane, t)


def _pick(
    self, t: float, src: Optional[Address] = None
) -> Optional[Tuple[Job, User]]:
    """Round-robin choice of the next admissible job at instant t,
    restricted to jobs toward *src* when given (one same-source
    group runs through one per-source engine)."""
    order = self._user_order
    for offset in range(len(order)):
        idx = (self._rr_index + offset) % len(order)
        name = order[idx]
        queue = self._queues[name]
        if not queue:
            continue
        job = queue[0]
        if src is not None and job.src != src:
            continue
        if job.eligible_at > t:
            continue
        if self._inflight_at(name, t) >= self._users[name].max_parallel:
            continue
        queue.popleft()
        self._rr_index = (idx + 1) % len(order)
        self._queue_depth_changed(-1)
        return job, self._users[name]
    return None


def _inflight_at(self, name: str, t: float) -> int:
    finishes = self._inflight_finish[name]
    finishes[:] = [f for f in finishes if f > t]
    return len(finishes)


def _admit_virtual(self, job: Job, user: User, t: float) -> bool:
    """Start-time check, per job of a group: quota.  Returns False
    when the job was rejected."""
    job.started_at = t
    self._note_started(job)
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
    self._tick_sampler()
    cfg = self.config
    job.result = result
    finish = t + result.duration
    job.finished_at = finish
    self._lanes[lane] = finish
    finishes = self._inflight_finish[user.name]
    finishes[:] = [f for f in finishes if f > t]
    finishes.append(finish)
    current = len(finishes)
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
    return job


def _execute_group(
    self, job: Job, user: User, lane: int, t: float
) -> Job:
    """Fill every lane free at instant *t* with same-source
    admissible jobs and run them as one
    :meth:`~repro.core.revtr.RevtrEngine.measure_many` group.

    Admission semantics are per job (quota checks, typed
    rejections, retry scheduling), and so is the probing: a group is
    jobs started at one instant through one engine, sharing only
    that engine's caches.  Each job's virtual finish is
    ``t + its own duration`` — the group starts together, like N
    lanes of a real deployment hitting the same engine at once.
    """
    inf = float("inf")
    group: List[Tuple[Job, User, int]] = [(job, user, lane)]
    # Reserve an in-flight slot per picked job so per-user parallel
    # caps hold across the whole group, not just the first pick.
    self._inflight_finish[user.name].append(inf)
    for other in range(len(self._lanes)):
        if other == lane or self._lanes[other] > t:
            continue
        picked = self._pick(t, job.src)
        if picked is None:
            break
        self._inflight_finish[picked[1].name].append(inf)
        group.append((picked[0], picked[1], other))
    for _job, _user, _lane in group:
        self._inflight_finish[_user.name].remove(inf)
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
