"""Reference solo path: one job, one ``measure``, verbatim.

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
Test-only: nothing under ``src/`` imports it.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

from repro.core.result import ReverseTracerouteResult
from repro.core.revtr import RevtrEngine
from repro.net.addr import Address
from repro.service.api import MeasurementRequest, RevtrService
from repro.service.scheduler import Job, RejectReason, RequestScheduler
from repro.service.users import User


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
