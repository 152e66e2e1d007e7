"""The revtr 2.0 service layer (Appendix A).

The paper operates revtr 2.0 as an open service: users register, add
their own hosts as reverse-traceroute sources (bootstrapped with a
traceroute atlas and RR atlas in ~15 minutes), and request measurements
through an API subject to per-user rate limits. This package implements
that operational shell over the measurement core.
"""

from repro.service.api import MeasurementRequest, RevtrService
from repro.service.scheduler import (
    Job,
    JobState,
    RejectReason,
    RequestScheduler,
    SchedulerConfig,
    SchedulerReport,
)
from repro.service.sources import BootstrapReport, SourceRegistry
from repro.service.store import MeasurementStore
from repro.service.users import User, UserDatabase

__all__ = [
    "MeasurementRequest",
    "RevtrService",
    "BootstrapReport",
    "SourceRegistry",
    "MeasurementStore",
    "User",
    "UserDatabase",
    "Job",
    "JobState",
    "RejectReason",
    "RequestScheduler",
    "SchedulerConfig",
    "SchedulerReport",
]
