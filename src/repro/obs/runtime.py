"""Wiring and runtime introspection.

Components that are not constructed with an explicit instrumentation
(engines, probers, the service) run on
:data:`~repro.obs.instrument.NULL`; :func:`attach` points the ones an
engine owns at the engine's sink.

:func:`introspect` assembles the operator-facing view: the metrics
snapshot plus the pre-existing accounting objects (probe counters,
cache stats) scraped into the same JSON document, so ``repro stats``
and :meth:`RevtrService.metrics_snapshot` report through one format.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.obs.instrument import NULL


def attach(instrumentation, *objects: Any) -> None:
    """Point each object's ``obs`` attribute at *instrumentation*.

    Only objects still on the :data:`NULL` default are rewired, so an
    explicitly instrumented component keeps its own sink.

    Rewired objects exposing an ``_on_obs_attached(instrumentation)``
    hook get it called once, so they can register pull-style collect
    sources with the live facade.
    """
    for obj in objects:
        if obj is not None and getattr(obj, "obs", None) is NULL:
            obj.obs = instrumentation
            hook = getattr(obj, "_on_obs_attached", None)
            if hook is not None:
                hook(instrumentation)


def introspect(
    instrumentation=None,
    probe_counters: Optional[Dict[str, Any]] = None,
    caches: Optional[Dict[str, Any]] = None,
    forwarding: Optional[Dict[str, Any]] = None,
    include_traces: bool = False,
) -> Dict[str, Any]:
    """One JSON-able document describing the running system.

    *probe_counters* maps names to
    :class:`~repro.probing.budget.ProbeCounter` instances and *caches*
    maps names to :class:`~repro.core.cache.MeasurementCache` (or bare
    :class:`~repro.core.cache.CacheStats`) instances; both are scraped
    via their own snapshot methods.  *forwarding* is the simulator's
    :meth:`~repro.sim.network.Internet.forwarding_cache_stats` document
    (FIB / resolve / LPM hit rates and sizes), included verbatim so
    cache memory growth is visible from ``repro stats`` and the
    service snapshot.
    """
    obs = instrumentation if instrumentation is not None else NULL
    out: Dict[str, Any] = {"enabled": bool(obs.enabled)}
    if obs.registry is not None:
        out["metrics"] = obs.registry.snapshot()
    if obs.tracer is not None:
        out["traces_recorded"] = len(obs.tracer.traces)
        if include_traces:
            out["traces"] = obs.tracer.export_json()
    events = getattr(obs, "events", None)
    if events is not None:
        out["events"] = events.summary()
    sampler = getattr(obs, "sampler", None)
    if sampler is not None:
        out["timeseries"] = sampler.summary()
    if probe_counters:
        out["probe_counters"] = {
            name: counter.snapshot()
            for name, counter in probe_counters.items()
        }
    if caches:
        scraped: Dict[str, Any] = {}
        for name, cache in caches.items():
            stats = getattr(cache, "stats", cache)
            scraped[name] = stats.as_dict()
        out["caches"] = scraped
    if forwarding is not None:
        out["forwarding_caches"] = forwarding
    return out
