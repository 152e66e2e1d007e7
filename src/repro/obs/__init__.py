"""Observability: metrics, per-measurement tracing, introspection.

The package has three layers:

* :mod:`repro.obs.metrics` — a thread-safe registry of counters,
  gauges, and fixed-bucket histograms with labeled children;
* :mod:`repro.obs.tracing` — a span tracer that records one structured
  trace tree per reverse traceroute, with wall-clock *and* sim-clock
  durations;
* :mod:`repro.obs.instrument` — the facade the rest of the codebase
  talks to.  Instrumented call sites hold an ``obs`` attribute that is
  either a live :class:`~repro.obs.instrument.Instrumentation` or the
  :data:`~repro.obs.instrument.NULL` null object, so hot paths pay
  near-zero cost when observability is off.

:mod:`repro.obs.exposition` renders registry snapshots in the
Prometheus text format, and :mod:`repro.obs.runtime` holds the
process-wide default instrumentation plus the runtime-introspection
helpers used by ``repro stats`` and
:meth:`repro.service.api.RevtrService.metrics_snapshot`.

The *flight recorder* adds a fourth layer: :mod:`repro.obs.events`
(bounded structured event log), :mod:`repro.obs.eventio` (JSONL export
with gzip rotation), :mod:`repro.obs.provenance` (per-measurement
decision ledger behind ``repro explain``), and :mod:`repro.obs.slo`
(histogram-derived SLO summaries for ``repro stats --slo``).

The *time dimension* adds a fifth layer: :mod:`repro.obs.timeseries`
(bounded ring of periodic registry snapshots with rate/window
queries), :mod:`repro.obs.health` (rule-based detectors producing
typed findings correlated to flight-recorder events),
:mod:`repro.obs.dashboard` (``repro top`` rendering), and
:mod:`repro.obs.httpd` (HTTP exposition endpoint for
``repro serve --http``).
"""

from repro.obs.dashboard import live_view, render_top, sparkline
from repro.obs.eventio import JsonlEventWriter, follow_jsonl, read_events
from repro.obs.events import EVENT_SCHEMA_VERSION, Event, EventLog
from repro.obs.exposition import render_text
from repro.obs.health import (
    HealthEngine,
    HealthFinding,
    format_findings,
)
from repro.obs.httpd import ObsHTTPServer
from repro.obs.instrument import (
    NULL,
    BoundCounter,
    Instrumentation,
    NullInstrumentation,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.provenance import ProvenanceLedger, explain_measurement
from repro.obs.runtime import (
    disable,
    enable,
    get_default,
    introspect,
    set_default,
)
from repro.obs.slo import (
    delta_buckets,
    format_slo,
    histogram_quantile,
    merged_buckets,
    slo_summary,
)
from repro.obs.timeseries import (
    TimeSample,
    TimeSeriesSampler,
    install_sampler,
)
from repro.obs.tracing import Span, Tracer

__all__ = [
    "BoundCounter",
    "Counter",
    "EVENT_SCHEMA_VERSION",
    "Event",
    "EventLog",
    "Gauge",
    "HealthEngine",
    "HealthFinding",
    "Histogram",
    "Instrumentation",
    "JsonlEventWriter",
    "MetricsRegistry",
    "NULL",
    "NullInstrumentation",
    "ObsHTTPServer",
    "ProvenanceLedger",
    "Span",
    "TimeSample",
    "TimeSeriesSampler",
    "Tracer",
    "delta_buckets",
    "disable",
    "enable",
    "explain_measurement",
    "follow_jsonl",
    "format_findings",
    "format_slo",
    "get_default",
    "histogram_quantile",
    "install_sampler",
    "introspect",
    "live_view",
    "merged_buckets",
    "read_events",
    "render_text",
    "render_top",
    "set_default",
    "slo_summary",
    "sparkline",
]
