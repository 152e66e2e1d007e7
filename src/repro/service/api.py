"""The measurement API facade (Appendix A).

`RevtrService` is the in-process equivalent of the paper's REST/gRPC
endpoints: authenticated users request reverse traceroutes from
destinations of their choice toward registered sources; requests are
charged against per-user quotas, executed by a per-source revtr 2.0
engine, and archived in the measurement store.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.asmap.ip2as import IPToASMapper
from repro.asmap.relationships import ASRelationships
from repro.core.revtr import EngineConfig, RevtrEngine
from repro.core.result import ReverseTracerouteResult
from repro.core.segcache import ReverseSegmentCache
from repro.net.addr import Address
from repro.obs.instrument import NULL
from repro.probing.prober import Prober
from repro.service.sources import SourceRegistry
from repro.service.store import MeasurementStore
from repro.service.users import User, UserDatabase


@dataclass
class MeasurementRequest:
    """A user's reverse-traceroute request."""

    api_key: str
    dst: Address
    src: Address


class RevtrService:
    """Users, sources, quotas, engines, and the archive — wired up."""

    def __init__(
        self,
        prober: Prober,
        registry: SourceRegistry,
        selector,
        ip2as: IPToASMapper,
        relationships: ASRelationships,
        resolver=None,
        engine_config: Optional[EngineConfig] = None,
        instrumentation=None,
    ) -> None:
        self.prober = prober
        self.registry = registry
        self.selector = selector
        self.ip2as = ip2as
        self.relationships = relationships
        self.resolver = resolver
        self.engine_config = (
            engine_config if engine_config is not None else EngineConfig()
        )
        #: observability sink shared with every per-source engine
        self.obs = instrumentation if instrumentation is not None else NULL
        self.users = UserDatabase(prober.clock)
        self.store = MeasurementStore()
        self._engines: Dict[Address, RevtrEngine] = {}

    # ------------------------------------------------------------------
    # Administration
    # ------------------------------------------------------------------

    def add_user(
        self,
        name: str,
        max_parallel: int = 10,
        max_per_day: int = 10_000,
    ) -> User:
        return self.users.add_user(
            name, max_parallel=max_parallel, max_per_day=max_per_day
        )

    def add_source(self, api_key: str, addr: Address):
        """Register a source for an authenticated user (bootstraps
        it)."""
        self.users.authenticate(api_key)
        return self.registry.register(addr)

    # ------------------------------------------------------------------
    # Measurement
    # ------------------------------------------------------------------

    def _engine_for(self, source: Address) -> RevtrEngine:
        engine = self._engines.get(source)
        if engine is None:
            registered = self.registry.sources.get(source)
            if registered is None:
                raise KeyError(f"source {source} not registered")
            engine = RevtrEngine(
                prober=self.prober,
                source=source,
                atlas=registered.atlas,
                selector=self.selector,
                ip2as=self.ip2as,
                relationships=self.relationships,
                config=self.engine_config,
                rr_atlas=registered.rr_atlas,
                resolver=self.resolver,
                spoofers=self.registry.spoofer_vps,
                instrumentation=self.obs,
                segcache=ReverseSegmentCache(
                    self.prober.clock, self.prober.internet
                ),
            )
            self._engines[source] = engine
        return engine

    def _measure_group(
        self,
        engine: RevtrEngine,
        items: Sequence[tuple],
    ) -> List[ReverseTracerouteResult]:
        """Run a group through :meth:`RevtrEngine.measure_many`.

        *items* is a sequence of ``(dst, user_name)`` pairs; every
        result gets its own per-request accounting (ledger event,
        metrics, archive entry).  A direct request is a group of one.
        """
        results = engine.measure_many([dst for dst, _ in items])
        for (dst, user_name), result in zip(items, results):
            self._account(engine, result, dst, user_name)
        return results

    def _account(
        self,
        engine: RevtrEngine,
        result: ReverseTracerouteResult,
        dst: Address,
        user_name: str,
    ) -> None:
        """Per-request ledger/metrics/archive bookkeeping."""
        obs = self.obs
        if obs.enabled:
            # Service-level ledger entry, correlated to the engine's
            # measurement id so `repro explain` sees who asked.
            obs.emit(
                "service.request",
                _mid=result.measurement_id,
                user=user_name,
                src=str(engine.source),
                dst=str(dst),
                status=result.status.value,
            )
            obs.inc(
                "service_requests_total",
                user=user_name,
                status=result.status.value,
            )
            obs.observe(
                "service_request_duration_seconds", result.duration
            )
        self.store.append(result, user_name)
        # Direct (non-scheduled) requests also heartbeat the telemetry
        # time-series; cheap clock-read guard when no sampler exists.
        sampler = obs.sampler
        if sampler is not None:
            sampler.maybe_sample()

    def request(
        self, request: MeasurementRequest
    ) -> ReverseTracerouteResult:
        """Execute one authenticated reverse-traceroute request."""
        user = self.users.authenticate(request.api_key)
        # Resolved before the charge: an unregistered source raises
        # here and costs the user nothing.
        engine = self._engine_for(request.src)
        day = user.charge(self.prober.clock.now())
        try:
            (result,) = self._measure_group(
                engine, [(request.dst, user.name)]
            )
        except Exception:
            # The charge bought no measurement, so it goes back.
            user.refund(day)
            raise
        return result

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------

    def scheduler(self, config=None):
        """A :class:`~repro.service.scheduler.RequestScheduler` bound
        to this service (admission control, quota, retries)."""
        from repro.service.scheduler import RequestScheduler

        return RequestScheduler(self, config=config)
