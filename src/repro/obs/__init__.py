"""Observability: metrics, per-measurement tracing, the flight recorder.

Every metric family, event kind and span name the codebase emits has
a named reader (DESIGN.md, "Who reads what";
``tests/test_obs_consumers.py`` holds the table to the code).  The
package, by what reads it:

* the facade instrumented code talks to — :mod:`repro.obs.instrument`
  (a live :class:`~repro.obs.instrument.Instrumentation` or the
  :data:`~repro.obs.instrument.NULL` null object, which every
  component not handed one runs on), over :mod:`repro.obs.metrics`
  (registry of counters, gauges and fixed-bucket histograms, plus the
  readers of its snapshot shape), :mod:`repro.obs.tracing` (one span
  tree per reverse traceroute, wall-clock *and* sim-clock durations)
  and :mod:`repro.obs.events` (the flight recorder: a bounded
  structured event log); :mod:`repro.obs.runtime` points an engine's
  components at its sink;
* per measurement — :mod:`repro.obs.provenance` (the decision ledger
  behind ``repro explain``) and :mod:`repro.obs.eventio` (JSONL export
  with gzip rotation, behind ``repro events``);
* per run — :mod:`repro.obs.slo` (histogram-derived SLO rollup for
  ``repro stats --slo``) and :mod:`repro.obs.exposition` (Prometheus
  text format);
* over time — :mod:`repro.obs.timeseries` (bounded ring of periodic
  registry snapshots), :mod:`repro.obs.health` (one table of rules
  over those windows, each finding citing flight-recorder events),
  :mod:`repro.obs.dashboard` (``repro top``) and :mod:`repro.obs.httpd`
  (``repro serve --http``).
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
    Instrumentation,
    NullInstrumentation,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.provenance import ProvenanceLedger
from repro.obs.slo import (
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
    "follow_jsonl",
    "format_findings",
    "format_slo",
    "histogram_quantile",
    "install_sampler",
    "live_view",
    "merged_buckets",
    "read_events",
    "render_text",
    "render_top",
    "slo_summary",
    "sparkline",
]
