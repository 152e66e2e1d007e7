"""The instrumentation facade.

Instrumented code holds an ``obs`` attribute and calls a tiny surface:

* ``obs.inc(name, **labels)`` — bump a counter by one;
* ``obs.observe(name, value, **labels)`` — record a histogram sample;
* ``obs.set_gauge(name, value, **labels)`` — set a gauge;
* ``obs.emit(kind, **fields)`` — record a flight-recorder event
  (:mod:`repro.obs.events`), the one record of an engine decision;
  ``_mid=`` overrides the current measurement id;
* ``obs.enabled`` — cheap guard for computations only worth doing when
  somebody is watching.

Two implementations exist: :class:`Instrumentation` (live registry +
flight recorder) and :class:`NullInstrumentation`, whose shared
:data:`NULL` singleton is the default everywhere — every method is a
``pass``, so hot paths pay a single attribute lookup and call when
observability is off.
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
        "(queue-full/quota/error).",
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


class NullInstrumentation:
    """Observability turned off: every operation is a no-op."""

    enabled = False
    registry: Optional[MetricsRegistry] = None
    events = None
    # Time-series sampler (repro.obs.timeseries); hook points guard
    # with ``obs.sampler is not None`` so both facades carry the slot.
    sampler = None

    def inc(self, name: str, **labels: Any) -> None:
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


#: The process-wide null object every component not handed a live
#: facade runs on.
NULL = NullInstrumentation()


class Instrumentation:
    """Live instrumentation: a metrics registry and a flight
    recorder."""

    enabled = True

    def __init__(
        self, event_capacity: int = DEFAULT_EVENT_CAPACITY
    ) -> None:
        self.registry = MetricsRegistry()
        # Inert (repro.obs.tracing): kept for the e2e layer tracer only.
        self.tracer = Tracer()
        self.span = self.tracer.span
        # The sim clock is bound on the recorder by whoever owns it
        # (Scenario); the sampler reads it from there.
        self.events = EventLog(capacity=event_capacity)
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
        # (name, label_items) key -> (child series, is a counter), so a
        # collection resolves each series once, not on every snapshot.
        self._pulled: Dict[Any, Any] = {}
        # Pull-style sources: callables returning
        # {(metric_name, ((label, value), ...)): value}.  Mirrored into
        # the registry at collection (snapshot/exposition) time, so
        # per-probe hot paths pay a plain Python increment instead of
        # a registry update.
        self._collect_sources: List[Any] = []
        for name, (kind, help, buckets) in DECLARED_METRICS.items():
            if kind == "counter":
                self.registry.counter(name, help)
            elif kind == "gauge":
                self.registry.gauge(name, help)
            else:
                self.registry.histogram(name, help, buckets=buckets)
        self.registry.register_collector(self._collect)
        # Emits are the hottest facade call, so the facade's ``emit`` /
        # ``emit_t`` are the recorder's bound methods (the tuple form's
        # values match ``events.TUPLE_FIELDS[kind]`` positionally).
        self.emit = self.events.emit
        self.emit_t = self.events.emit_t
        self.register_collect_source(self._obs_self_collect)

    # -- pull-style collection ------------------------------------------

    def register_collect_source(self, source) -> None:
        """Register a source mirrored into the registry on snapshot.

        *source* is a callable returning ``{(name, label_items): value}``
        where ``label_items`` is a tuple of ``(label, value)`` pairs and
        *name* is a counter or a gauge of :data:`DECLARED_METRICS`.
        Counter tallies from distinct sources targeting the same series
        are summed (several probers may mirror into one
        ``probes_sent_total`` family); a gauge is set, and the latest
        reading wins.  Sources are deduplicated by equality, so a
        component shared by several engines is collected once.
        """
        if source not in self._collect_sources:
            self._collect_sources.append(source)

    def _obs_self_collect(self) -> Dict[Any, float]:
        """Mirror the flight recorder's drop tally into its counter."""
        dropped = self.events.accounting()[1]
        if dropped:
            return {("obs_events_dropped_total", ()): float(dropped)}
        return {}

    def _pulled_child(self, key):
        """``(series, is a counter)`` for a pull source's
        ``(name, label_items)`` key, resolved once through the name's
        declared type."""
        pulled = self._pulled.get(key)
        if pulled is None:
            name, label_items = key
            counter = DECLARED_METRICS[name][0] == "counter"
            family = self.registry.counter if counter else self.registry.gauge
            pulled = self._pulled[key] = (
                family(name).labels(**dict(label_items)),
                counter,
            )
        return pulled

    def _collect(self) -> None:
        # Counters are summed per child, not per key: the registry
        # canonicalises label order, so sources spelling the same
        # series differently resolve to one child and still sum into
        # one total.
        totals: Dict[Any, float] = {}
        for source in self._collect_sources:
            for key, value in source().items():
                child, counter = self._pulled_child(key)
                if counter:
                    totals[child] = totals.get(child, 0.0) + value
                else:
                    child.set(value)
        for child, value in totals.items():
            child.set_total(value)

    # -- metrics --------------------------------------------------------

    def inc(self, name: str, **labels: Any) -> None:
        key = (name, *labels.items())
        child = self._series.get(key)
        if child is None:
            child = self.registry.counter(name).labels(**labels)
            self._series[key] = child
        child.inc()

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
