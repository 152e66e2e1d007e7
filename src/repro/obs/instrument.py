"""The instrumentation facade.

Instrumented code holds an ``obs`` attribute and calls a tiny surface:

* ``obs.span(name, **attrs)`` — a context manager opening a trace span;
* ``obs.inc(name, n=1, **labels)`` — bump a counter;
* ``obs.observe(name, value, **labels)`` — record a histogram sample;
* ``obs.set_gauge(name, value, **labels)`` — set a gauge;
* ``obs.emit(kind, **fields)`` — record a flight-recorder event
  (:mod:`repro.obs.events`); ``_mid=`` overrides the thread-local
  measurement id;
* ``obs.enabled`` — cheap guard for computations only worth doing when
  somebody is watching.

Two implementations exist: :class:`Instrumentation` (live registry +
tracer) and :class:`NullInstrumentation`, whose shared :data:`NULL`
singleton is the default everywhere — every method is a ``pass`` and
``span`` returns one reusable null context manager, so hot paths pay a
single attribute lookup and call when observability is off.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.obs.events import (
    DEFAULT_CAPACITY as DEFAULT_EVENT_CAPACITY,
    EventLog,
)
from repro.obs.metrics import DEFAULT_TIME_BUCKETS, MetricsRegistry
from repro.obs.tracing import Tracer

#: Metric declarations: name -> (type, help, histogram buckets).  The
#: live facade pre-registers these so expositions carry HELP text and
#: histograms get their intended bucket grids.  Every family ``src/``
#: emits is declared here and none is declared that nothing emits;
#: ``tests/test_obs_consumers.py`` holds both, and that each has a
#: reader (DESIGN.md, "Who reads what").
DECLARED_METRICS: Dict[str, Tuple[str, str, Optional[Sequence[float]]]] = {
    "probes_sent_total": (
        "counter",
        "Probes issued through a Prober, by packet kind.",
        None,
    ),
    "revtr_measurements_total": (
        "counter",
        "Completed RevtrEngine.measure() calls, by final status.",
        None,
    ),
    "revtr_steps_total": (
        "counter",
        "Measurement-loop technique invocations, by step kind.",
        None,
    ),
    "revtr_hops_total": (
        "counter",
        "Reverse hops adopted into results, by discovering technique.",
        None,
    ),
    "revtr_measure_duration_seconds": (
        "histogram",
        "Sim-clock duration of one reverse traceroute.",
        DEFAULT_TIME_BUCKETS,
    ),
    "cache_lookups_total": (
        "counter",
        "Measurement-cache lookups, by outcome (hit/miss/expired).",
        None,
    ),
    "revtr_segment_hits_total": (
        "counter",
        "Reverse-segment cache lookups served, by kind (chain/negative).",
        None,
    ),
    "revtr_segment_misses_total": (
        "counter",
        "Reverse-segment cache lookups that found nothing usable.",
        None,
    ),
    "revtr_segment_splices_total": (
        "counter",
        "Segment-cache chains spliced into results.",
        None,
    ),
    "revtr_segment_invalidations_total": (
        "counter",
        "Reverse-segment cache entries dropped, by reason "
        "(generation/ttl).",
        None,
    ),
    "atlas_stale_intersections_total": (
        "counter",
        "Accepted intersections older than the staleness bound.",
        None,
    ),
    "revtr_retries_total": (
        "counter",
        "Degradation retries spent by the engine, by technique.",
        None,
    ),
    "vp_quarantines_total": (
        "counter",
        "Vantage points quarantined after consecutive non-responses.",
        None,
    ),
    "vp_replacements_total": (
        "counter",
        "Quarantined vantage points substituted in spoofed batches.",
        None,
    ),
    "vp_quarantined_current": (
        "gauge",
        "Vantage points currently inside a quarantine window.",
        None,
    ),
    "atlas_age_seconds": (
        "gauge",
        "Age of the source's atlas traceroutes on the sim clock, "
        "by stat (oldest/mean).",
        None,
    ),
    "service_requests_total": (
        "counter",
        "RevtrService requests, by user and result status.",
        None,
    ),
    "service_request_duration_seconds": (
        "histogram",
        "Sim-clock latency of one service request.",
        DEFAULT_TIME_BUCKETS,
    ),
    "service_rejections_total": (
        "counter",
        "Scheduler admissions refused, by reason "
        "(queue-full/deadline/quota/error).",
        None,
    ),
    "service_retries_total": (
        "counter",
        "Scheduler retry attempts for unresponsive destinations.",
        None,
    ),
    "service_queue_depth": (
        "gauge",
        "Jobs currently queued in the request scheduler.",
        None,
    ),
    "service_inflight": (
        "gauge",
        "Reverse traceroutes currently in flight, by user.",
        None,
    ),
    "service_queue_wait_seconds": (
        "histogram",
        "Sim-clock time jobs spent queued before execution, "
        "by admission attempt.",
        DEFAULT_TIME_BUCKETS,
    ),
    "obs_events_dropped_total": (
        "counter",
        "Events overwritten in the flight recorder's bounded ring.",
        None,
    ),
}


class _NullSpan:
    """A reusable no-op span/context-manager."""

    __slots__ = ()
    attrs: Dict[str, Any] = {}

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def annotate(self, **attrs: Any) -> None:
        pass


_NULL_SPAN = _NullSpan()


class NullInstrumentation:
    """Observability turned off: every operation is a no-op."""

    enabled = False
    registry: Optional[MetricsRegistry] = None
    tracer: Optional[Tracer] = None
    events = None
    # Time-series sampler (repro.obs.timeseries); hook points guard
    # with ``obs.sampler is not None`` so both facades carry the slot.
    sampler = None

    def span(self, name: str, **attrs: Any) -> _NullSpan:
        return _NULL_SPAN

    def inc(self, name: str, n: float = 1.0, **labels: Any) -> None:
        pass

    def observe(self, name: str, value: float, **labels: Any) -> None:
        pass

    def set_gauge(self, name: str, value: float, **labels: Any) -> None:
        pass

    def emit(
        self, kind: str, /, _mid: Any = None, **fields: Any
    ) -> None:
        pass

    def emit_t(self, kind: str, values: tuple) -> None:
        pass


#: The process-wide null object.  Identity-compared by wiring code
#: ("is the obs on this component still the default?"), so there should
#: be exactly one.
NULL = NullInstrumentation()


class Instrumentation:
    """Live instrumentation: a metrics registry, a tracer and a
    flight recorder."""

    enabled = True

    def __init__(
        self,
        clock=None,
        registry: Optional[MetricsRegistry] = None,
        events: Optional[EventLog] = None,
        event_capacity: int = DEFAULT_EVENT_CAPACITY,
    ) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self.tracer = Tracer(clock=clock)
        self.events: EventLog = (
            events
            if events is not None
            else EventLog(capacity=event_capacity, clock=clock)
        )
        # Installed by repro.obs.timeseries.install_sampler; scheduler/
        # service completion hooks tick it via ``maybe_sample``.
        self.sampler = None
        # Hot-path cache: (name, *label items) -> child series.  Call
        # sites pass labels as keyword literals, so per-site ordering
        # is stable and no sorting is needed on the fast path (the
        # registry itself canonicalises label order, so two orderings
        # of the same labels still share one series).
        self._series: Dict[Any, Any] = {}
        # Collection-side twin of ``_series``: a pull source's
        # (name, label_items) key -> child series, so a collection
        # resolves each series once, not on every snapshot.
        self._pulled: Dict[Any, Any] = {}
        # Pull-style sources: callables returning
        # {(metric_name, ((label, value), ...)): tally}.  Their tallies
        # are summed per series and mirrored into the registry at
        # collection (snapshot/exposition) time, so per-probe hot paths
        # pay a plain Python increment instead of a registry update.
        self._collect_sources: List[Any] = []
        # Gauge analogue of ``_collect_sources``: snapshots that *set*
        # their series (cache sizes, generations) rather than summing.
        self._gauge_sources: List[Any] = []
        for name, (kind, help, buckets) in DECLARED_METRICS.items():
            if kind == "counter":
                self.registry.counter(name, help)
            elif kind == "gauge":
                self.registry.gauge(name, help)
            else:
                self.registry.histogram(name, help, buckets=buckets)
        self.registry.register_collector(self._collect)
        # Spans are the hottest facade call (~10 per measurement);
        # binding the tracer's method directly skips one Python frame
        # per span.  Same trick for emits — the second-hottest call.
        self.span = self.tracer.span
        self.emit = self.events.emit
        self.emit_t = self.events.emit_t
        self.register_collect_source(self._obs_self_collect)

    # -- pull-style collection ------------------------------------------

    def register_collect_source(self, source) -> None:
        """Register a tally source mirrored into counters on snapshot.

        *source* is a callable returning ``{(name, label_items): n}``
        where ``label_items`` is a tuple of ``(label, value)`` pairs.
        Sources are deduplicated by equality, and tallies from distinct
        sources targeting the same series are summed (several probers
        may mirror into one ``probes_sent_total`` family).
        """
        if source not in self._collect_sources:
            self._collect_sources.append(source)

    def register_gauge_source(self, source) -> None:
        """Register a gauge snapshot source evaluated on collection.

        Same calling convention as :meth:`register_collect_source`, but
        values are *set* on gauge series instead of summed into
        counters — the right semantics for sizes and generations, where
        the latest reading wins.
        """
        if source not in self._gauge_sources:
            self._gauge_sources.append(source)

    def _obs_self_collect(self) -> Dict[Any, float]:
        """Mirror the flight recorder's drop tally into its counter."""
        dropped = self.events.accounting()[1]
        if dropped:
            return {("obs_events_dropped_total", ()): float(dropped)}
        return {}

    @staticmethod
    def _pull(source) -> Dict[Any, float]:
        # Sources iterate plain tally dicts that a workload thread may
        # be inserting into when a live view samples concurrently; a
        # resize mid-iteration raises RuntimeError.  Retrying re-reads
        # the (slightly newer) tallies — counters are monotone, so any
        # consistent read is valid.
        for _ in range(3):
            try:
                return dict(source().items())
            except RuntimeError:
                continue
        return {}

    def _pulled_child(self, key, family):
        """The series a pull source's ``(name, label_items)`` key names,
        resolved through *family* (``registry.counter``/``gauge``) once."""
        child = self._pulled.get(key)
        if child is None:
            name, label_items = key
            child = self._pulled[key] = family(name).labels(
                **dict(label_items)
            )
        return child

    def _collect(self) -> None:
        counter, gauge = self.registry.counter, self.registry.gauge
        # Summed per child, not per key: the registry canonicalises
        # label order, so sources spelling the same series differently
        # resolve to one child and still sum into one total.
        totals: Dict[Any, float] = {}
        for source in list(self._collect_sources):
            for key, value in self._pull(source).items():
                child = self._pulled_child(key, counter)
                totals[child] = totals.get(child, 0.0) + value
        for child, value in totals.items():
            child.set_total(value)
        for source in list(self._gauge_sources):
            for key, value in self._pull(source).items():
                self._pulled_child(key, gauge).set(value)

    # -- tracing --------------------------------------------------------

    def span(self, name: str, **attrs: Any):
        # Shadowed by the bound ``tracer.span`` in ``__init__`` on the
        # hot path; kept so the facade surface stays self-documenting.
        return self.tracer.span(name, **attrs)

    # -- metrics --------------------------------------------------------

    def inc(self, name: str, n: float = 1.0, **labels: Any) -> None:
        key = (name, *labels.items())
        child = self._series.get(key)
        if child is None:
            child = self.registry.counter(name).labels(**labels)
            self._series[key] = child
        child.inc(n)

    def observe(self, name: str, value: float, **labels: Any) -> None:
        key = (name, *labels.items())
        child = self._series.get(key)
        if child is None:
            child = self.registry.histogram(name).labels(**labels)
            self._series[key] = child
        child.observe(value)

    def set_gauge(self, name: str, value: float, **labels: Any) -> None:
        key = (name, *labels.items())
        child = self._series.get(key)
        if child is None:
            child = self.registry.gauge(name).labels(**labels)
            self._series[key] = child
        child.set(value)

    # -- events ---------------------------------------------------------

    def emit(
        self, kind: str, /, _mid: Any = None, **fields: Any
    ) -> None:
        # Shadowed by the bound ``events.emit`` in ``__init__`` on the
        # hot path; kept so the facade surface stays self-documenting.
        self.events.emit(kind, _mid=_mid, **fields)

    def emit_t(self, kind: str, values: tuple) -> None:
        # Shadowed like ``emit`` above.  The tuple-payload fast path:
        # *values* match ``events.TUPLE_FIELDS[kind]`` positionally.
        self.events.emit_t(kind, values)
