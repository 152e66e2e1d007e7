"""Event- and histogram-derived SLO summaries for ``repro stats``.

Works off the JSON snapshot shape of
:meth:`repro.obs.metrics.MetricsRegistry.snapshot` (live or loaded
back from disk).  Quantiles are estimated from cumulative histogram
buckets with linear interpolation inside the winning bucket — the same
estimator as PromQL's ``histogram_quantile`` — so the numbers here
match what a dashboard over the exposition endpoint would show.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.obs.metrics import family_by_label, family_total

#: Quantiles each latency SLO reports.
DEFAULT_QUANTILES: Tuple[float, ...] = (0.5, 0.95, 0.99)

#: Histograms summarised as latency SLOs, with display labels.
LATENCY_HISTOGRAMS: Tuple[Tuple[str, str], ...] = (
    ("revtr_measure_duration_seconds", "measure (engine)"),
    ("service_request_duration_seconds", "request (end-to-end)"),
    ("service_queue_wait_seconds", "queue wait (scheduler)"),
)

#: step-kind -> (technique label, hop-technique label in
#: ``revtr_hops_total``); how attempts map to adopted hops.
_TECHNIQUE_MAP: Tuple[Tuple[str, str, str], ...] = (
    ("rr_direct", "record-route", "rr"),
    ("rr_spoofed", "spoofed record-route", "spoofed-rr"),
    ("ts", "timestamp", "ts"),
    ("symmetry", "assume-symmetry", "assumed"),
)


def _edge(le: Any) -> float:
    return float("inf") if le == "+Inf" else float(le)


def merged_buckets(
    family: Dict[str, Any]
) -> List[Tuple[float, float]]:
    """Sum cumulative buckets across a family's label children, edge
    by edge.

    The children of a family share one bucket grid: a live registry
    gives each histogram one, and :func:`repro.obs.metrics.check_snapshot`
    refuses a loaded snapshot whose children disagree.
    """
    totals: Dict[float, float] = {}
    for series in family.get("series", []):
        for le, cumulative in series.get("buckets", []):
            edge = _edge(le)
            totals[edge] = totals.get(edge, 0.0) + cumulative
    return sorted(totals.items())


def histogram_quantile(
    buckets: Sequence[Tuple[float, float]], q: float
) -> Optional[float]:
    """``histogram_quantile``-style estimate from cumulative buckets.

    Returns None for an empty histogram, and None when every
    observation sits in a lone ``+Inf`` bucket with no finite edge
    below it (there is no finite value the estimate could report).
    Quantiles landing in the +Inf bucket otherwise report the highest
    finite edge (the estimator cannot see past it).  ``q <= 0`` reports
    the lower boundary of the first non-empty bucket rather than the
    first grid edge, so empty leading buckets don't skew the minimum.
    """
    if not buckets:
        return None
    buckets = sorted(buckets)
    total = buckets[-1][1]
    if total <= 0:
        return None
    rank = q * total
    previous_edge: Optional[float] = None
    previous_cumulative = 0.0
    for edge, cumulative in buckets:
        in_bucket = cumulative - previous_cumulative
        if cumulative >= rank and in_bucket > 0:
            if edge == float("inf"):
                # All remaining mass is beyond the last finite edge; a
                # grid with *only* +Inf has nothing finite to report.
                return previous_edge
            lower = previous_edge if previous_edge is not None else 0.0
            if rank <= previous_cumulative:
                # q <= 0 (or an exact landing on the bucket's lower
                # boundary): the quantile is the boundary itself.
                return lower
            fraction = (rank - previous_cumulative) / in_bucket
            return lower + fraction * (edge - lower)
        if edge != float("inf"):
            previous_edge = edge
        previous_cumulative = cumulative
    return previous_edge


def slo_summary(snapshot: Dict[str, Any]) -> Dict[str, Any]:
    """Compute the SLO rollup from a metrics snapshot."""
    out: Dict[str, Any] = {}

    statuses = family_by_label(
        snapshot, "revtr_measurements_total", "status"
    )
    total = sum(statuses.values())
    out["measurements"] = {
        "total": total,
        "by_status": {k: v for k, v in sorted(statuses.items())},
        "completion_rate": (
            statuses.get("complete", 0.0) / total if total else None
        ),
    }

    steps = family_by_label(snapshot, "revtr_steps_total", "kind")
    hops = family_by_label(snapshot, "revtr_hops_total", "technique")
    techniques: Dict[str, Any] = {}
    intersect_attempts = steps.get("intersect_hit", 0.0) + steps.get(
        "intersect_miss", 0.0
    )
    if intersect_attempts:
        techniques["atlas intersection"] = {
            "attempts": intersect_attempts,
            "successes": steps.get("intersect_hit", 0.0),
            "success_rate": (
                steps.get("intersect_hit", 0.0) / intersect_attempts
            ),
            "hops": hops.get("intersection", 0.0),
        }
    for step_kind, label, hop_technique in _TECHNIQUE_MAP:
        attempts = steps.get(step_kind, 0.0)
        if not attempts:
            continue
        adopted = hops.get(hop_technique, 0.0)
        techniques[label] = {
            "attempts": attempts,
            "hops": adopted,
            # "success" = the attempt contributed adopted hops; with
            # only counters available this is hops-per-attempt capped
            # at 1 for the rate view.
            "success_rate": min(1.0, adopted / attempts),
        }
    out["techniques"] = techniques

    latencies: Dict[str, Any] = {}
    for name, label in LATENCY_HISTOGRAMS:
        family = snapshot.get(name)
        if not family or family.get("type") != "histogram":
            continue
        buckets = merged_buckets(family)
        count = buckets[-1][1] if buckets else 0
        if not count:
            continue
        total_sum = sum(
            series.get("sum", 0.0)
            for series in family.get("series", [])
        )
        entry: Dict[str, Any] = {
            "metric": name,
            "count": count,
            "mean": total_sum / count,
        }
        for q in DEFAULT_QUANTILES:
            entry[f"p{int(q * 100)}"] = histogram_quantile(buckets, q)
        latencies[label] = entry
    out["latency"] = latencies

    # Amortization: how much repeated work the caches absorbed.  Both
    # rates read 0 lookups (and stay hidden) unless the corresponding
    # feature ran, so the section only appears when it is meaningful.
    amortization: Dict[str, Any] = {}
    cache_outcomes = family_by_label(
        snapshot, "cache_lookups_total", "outcome"
    )
    cache_lookups = sum(cache_outcomes.values())
    if cache_lookups:
        cache_hits = cache_outcomes.get("hit", 0.0)
        amortization["measurement cache"] = {
            "lookups": cache_lookups,
            "hits": cache_hits,
            "hit_rate": cache_hits / cache_lookups,
            "expired": cache_outcomes.get("expired", 0.0),
        }
    segment_hits = family_by_label(
        snapshot, "revtr_segment_hits_total", "kind"
    )
    segment_misses = family_total(
        snapshot, "revtr_segment_misses_total"
    )
    segment_lookups = sum(segment_hits.values()) + segment_misses
    if segment_lookups:
        hit_total = sum(segment_hits.values())
        amortization["segment cache"] = {
            "lookups": segment_lookups,
            "hits": hit_total,
            "hit_rate": hit_total / segment_lookups,
            "negative_hits": segment_hits.get("negative", 0.0),
            "splices": family_total(
                snapshot, "revtr_segment_splices_total"
            ),
            "invalidations": sum(
                family_by_label(
                    snapshot,
                    "revtr_segment_invalidations_total",
                    "reason",
                ).values()
            ),
        }
    if amortization:
        out["amortization"] = amortization

    rejections = family_by_label(
        snapshot, "service_rejections_total", "reason"
    )
    if rejections:
        out["rejections"] = {
            k: v for k, v in sorted(rejections.items())
        }
    return out


def format_slo(summary: Dict[str, Any]) -> str:
    """Human-readable SLO block for ``repro stats --slo``."""
    lines: List[str] = ["== SLO summary =="]
    measurements = summary.get("measurements", {})
    total = measurements.get("total", 0)
    lines.append(f"measurements: {int(total)}")
    rate = measurements.get("completion_rate")
    if rate is not None:
        by_status = ", ".join(
            f"{status}={int(n)}"
            for status, n in measurements.get("by_status", {}).items()
        )
        lines.append(
            f"  completion rate: {rate:.1%}  ({by_status})"
        )
    techniques = summary.get("techniques", {})
    if techniques:
        lines.append("per-technique success:")
        for label, entry in techniques.items():
            lines.append(
                "  {label:<22s} attempts={attempts:<6d} "
                "success={rate:.1%}  hops={hops}".format(
                    label=label,
                    attempts=int(entry.get("attempts", 0)),
                    rate=entry.get("success_rate", 0.0),
                    hops=int(entry.get("hops", 0)),
                )
            )
    amortization = summary.get("amortization", {})
    if amortization:
        lines.append("amortization (cache reuse):")
        for label, entry in amortization.items():
            extra = ""
            if "splices" in entry:
                extra = "  splices={splices}  invalidated={inv}".format(
                    splices=int(entry.get("splices", 0)),
                    inv=int(entry.get("invalidations", 0)),
                )
            lines.append(
                "  {label:<22s} lookups={lookups:<6d} "
                "hit rate={rate:.1%}{extra}".format(
                    label=label,
                    lookups=int(entry.get("lookups", 0)),
                    rate=entry.get("hit_rate", 0.0),
                    extra=extra,
                )
            )
    latency = summary.get("latency", {})
    if latency:
        lines.append("latency (sim-seconds):")
        for label, entry in latency.items():
            quantile_text = "  ".join(
                f"{key}={value:.3f}"
                for key, value in entry.items()
                if key.startswith("p") and value is not None
            )
            lines.append(
                "  {label:<22s} n={count:<6d} mean={mean:.3f}  "
                "{qs}".format(
                    label=label,
                    count=int(entry.get("count", 0)),
                    mean=entry.get("mean", 0.0),
                    qs=quantile_text,
                )
            )
    rejections = summary.get("rejections")
    if rejections:
        rejection_text = ", ".join(
            f"{reason}={int(n)}" for reason, n in rejections.items()
        )
        lines.append(f"rejections: {rejection_text}")
    return "\n".join(lines)
