"""Rule-based health detection over the telemetry time-series.

A :class:`HealthEngine` evaluates sliding windows of a
:class:`repro.obs.timeseries.TimeSeriesSampler` against a table of
rules and produces typed :class:`HealthFinding`\\ s — SLO burn-rate
breaches, cache hit-rate collapse, retry/quarantine storms, scheduler
queue buildup, event-ring drop onset, atlas staleness, rejection
storms.  Each finding carries machine-readable *evidence*: the metric
window it was computed over (start/end sim time, deltas, rates) and
the flight-recorder event sequence numbers inside that window whose
kinds explain the signal, so ``repro health`` is a one-command
diagnosis that links straight back to ``repro explain``/``repro
events``.

The rules are one table, :data:`RULES`: a :class:`Rule` per finding
kind holding everything that differs between rules — the signal, the
window, the threshold, the function that reads the signal out of the
windowed samples, the events a finding cites — while
:meth:`HealthEngine.evaluate` does what they share.  A rule is added
or deleted by adding or deleting its row; DESIGN.md's table is
:func:`render_rules_table` of it.  Windows and thresholds are tuned
for the small/tiny simulated scenarios the CLI runs; the one thing a
caller varies is a single window for every rule
(``HealthEngine(window=...)``, ``repro health --window``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

from repro.obs.metrics import family_by_label, family_total

#: How many supporting event seqs a finding cites at most; the full
#: window is recoverable from the window bounds + ``repro events``.
MAX_CITED_EVENTS = 12

#: Severity ordering for sorting and status rollup.
_SEVERITY_RANK = {"critical": 2, "warning": 1, "info": 0}


@dataclass
class HealthFinding:
    """One detected condition, with its supporting evidence."""

    kind: str
    severity: str  # "info" | "warning" | "critical"
    message: str
    #: [start_sim, end_sim] of the evaluation window.
    window: Tuple[Optional[float], Optional[float]]
    value: float
    threshold: float
    #: Metric-level evidence: deltas/rates/series the rule computed.
    evidence: Dict[str, Any] = field(default_factory=dict)
    #: Flight-recorder event seqs inside the window explaining the
    #: signal (empty when no event log is attached).
    event_seqs: List[int] = field(default_factory=list)
    #: Event kinds the seqs were drawn from.
    event_kinds: Tuple[str, ...] = ()

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "severity": self.severity,
            "message": self.message,
            "window": list(self.window),
            "value": self.value,
            "threshold": self.threshold,
            "evidence": self.evidence,
            "event_seqs": list(self.event_seqs),
            "event_kinds": list(self.event_kinds),
        }


#: Completion objective; the allowed error fraction is ``1 - SLO_TARGET``.
SLO_TARGET = 0.75
#: Fewer measurements than this in the window say nothing about burn.
SLO_MIN_REQUESTS = 4
#: Fewer lookups than this in the window say nothing about hit rate.
CACHE_MIN_LOOKUPS = 8
#: A pre-window hit rate below this was never a warm cache.
CACHE_BASELINE_RATE = 0.3
#: Trailing samples the queue depth must be non-decreasing across.
QUEUE_MIN_SAMPLES = 3
#: Stale intersections adopted in the window that count as staleness.
ATLAS_STALE_THRESHOLD = 3.0
#: Oldest atlas traceroute age (sim-seconds) that counts as stale.
ATLAS_AGE_THRESHOLD = 2 * 86400.0


class Reading(NamedTuple):
    """What a rule read out of its window: the value compared with the
    threshold, and the finding's message and evidence if it breaches."""

    value: float
    message: str
    evidence: Dict[str, Any]
    #: set only where a rule's second signal has a scale of its own
    threshold: Optional[float] = None


@dataclass(frozen=True)
class Rule:
    """One row of the rules table."""

    #: the finding kind
    kind: str
    #: what is watched, as DESIGN.md's table prints it
    signal: str
    #: trailing sim-clock seconds evaluated
    window: float
    #: a reading at or above this is a finding
    threshold: float
    #: the windowed samples, oldest first -> what they say, or None
    #: when they say nothing (too little traffic, no baseline)
    read: Callable[[Sequence[Any]], Optional[Reading]]
    #: flight-recorder kinds a finding cites, and which of those
    #: events (the filter's docstring is its column in the table)
    cites: Tuple[str, ...] = ()
    keep: Optional[Callable[[Any], bool]] = None
    #: fewer samples than this in the window give no verdict
    min_samples: int = 2
    #: ``critical`` at ``2 * critical_scale`` times the threshold
    critical_scale: float = 1.0


def _delta(samples: Sequence[Any], name: str) -> float:
    """Newest-minus-oldest total of one counter family."""
    return max(
        0.0,
        family_total(samples[-1].metrics, name)
        - family_total(samples[0].metrics, name),
    )


def _delta_by_label(
    samples: Sequence[Any], name: str, label: str
) -> Dict[str, float]:
    """:func:`_delta` per value of *label*."""
    new = family_by_label(samples[-1].metrics, name, label)
    old = family_by_label(samples[0].metrics, name, label)
    return {key: new[key] - old.get(key, 0.0) for key in new}


def _read_slo_burn(samples: Sequence[Any]) -> Optional[Reading]:
    deltas = _delta_by_label(samples, "revtr_measurements_total", "status")
    total = sum(deltas.values())
    if total < SLO_MIN_REQUESTS:
        return None
    errors = total - deltas.get("complete", 0.0)
    error_fraction = errors / total
    burn = error_fraction / max(1e-9, 1.0 - SLO_TARGET)
    return Reading(
        burn,
        "completion SLO burning at {burn:.1f}x budget: "
        "{errors:.0f}/{total:.0f} measurements missed "
        "'complete' in the window (objective {target:.0%})".format(
            burn=burn, errors=errors, total=total, target=SLO_TARGET
        ),
        {
            "metric": "revtr_measurements_total",
            "window_statuses": {
                k: v for k, v in sorted(deltas.items()) if v
            },
            "error_fraction": error_fraction,
            "slo_target": SLO_TARGET,
        },
    )


def _read_cache_collapse(samples: Sequence[Any]) -> Optional[Reading]:
    old = family_by_label(
        samples[0].metrics, "cache_lookups_total", "outcome"
    )
    new = family_by_label(
        samples[-1].metrics, "cache_lookups_total", "outcome"
    )
    baseline_lookups = sum(old.values())
    lookups = sum(new.values()) - baseline_lookups
    # A cold cache (no baseline, or never warm) has nothing to lose.
    if lookups < CACHE_MIN_LOOKUPS or baseline_lookups <= 0:
        return None
    baseline_rate = old.get("hit", 0.0) / baseline_lookups
    if baseline_rate < CACHE_BASELINE_RATE:
        return None
    window_rate = (new.get("hit", 0.0) - old.get("hit", 0.0)) / lookups
    return Reading(
        baseline_rate - window_rate,
        "measurement-cache hit rate collapsed: {now:.0%} in the "
        "window vs {base:.0%} baseline over {n:.0f} lookups".format(
            now=window_rate, base=baseline_rate, n=lookups
        ),
        {
            "metric": "cache_lookups_total",
            "window_hit_rate": window_rate,
            "baseline_hit_rate": baseline_rate,
            "window_lookups": lookups,
        },
    )


def _read_retry_storm(samples: Sequence[Any]) -> Optional[Reading]:
    engine = _delta(samples, "revtr_retries_total")
    sched = _delta(samples, "service_retries_total")
    retries = engine + sched
    measurements = _delta(samples, "revtr_measurements_total")
    return Reading(
        retries,
        "retry storm: {n:.0f} degradation retries in the window "
        "({engine:.0f} engine, {sched:.0f} scheduler) across "
        "{m:.0f} measurements".format(
            n=retries, engine=engine, sched=sched, m=measurements
        ),
        {
            "metrics": ["revtr_retries_total", "service_retries_total"],
            "engine_retries": engine,
            "scheduler_retries": sched,
            "window_measurements": measurements,
            "retries_per_measurement": (
                retries / measurements if measurements else None
            ),
        },
    )


def _read_quarantine_churn(samples: Sequence[Any]) -> Optional[Reading]:
    quarantines = _delta(samples, "vp_quarantines_total")
    replacements = _delta(samples, "vp_replacements_total")
    active = samples[-1].gauge_value("vp_quarantined_current") or 0.0
    return Reading(
        quarantines + replacements,
        "VP churn: {q:.0f} quarantines and {r:.0f} replacements "
        "in the window ({a:.0f} VPs quarantined now)".format(
            q=quarantines, r=replacements, a=active
        ),
        {
            "metrics": [
                "vp_quarantines_total",
                "vp_replacements_total",
                "vp_quarantined_current",
            ],
            "quarantines": quarantines,
            "replacements": replacements,
            "quarantined_now": active,
        },
    )


def _read_queue_buildup(samples: Sequence[Any]) -> Optional[Reading]:
    depths = [s.gauge_value("service_queue_depth") for s in samples]
    depths = [d for d in depths if d is not None]
    tail = depths[-QUEUE_MIN_SAMPLES:]
    # Draining is not buildup, and neither is flat at the threshold.
    if (
        len(tail) < QUEUE_MIN_SAMPLES
        or any(b < a for a, b in zip(tail, tail[1:]))
        or tail[-1] <= tail[0]
    ):
        return None
    return Reading(
        tail[-1],
        "scheduler queue building up: depth {d:.0f} and "
        "non-decreasing over the last {n} samples".format(
            d=tail[-1], n=len(tail)
        ),
        {"metric": "service_queue_depth", "depths": depths},
    )


def _read_event_drops(samples: Sequence[Any]) -> Optional[Reading]:
    first, last = samples[0].events, samples[-1].events
    if first is None or last is None:
        return None
    before = first.get("dropped", 0)
    dropped = last.get("dropped", 0) - before
    return Reading(
        float(dropped),
        "flight recorder {what}: {n} events overwritten in the "
        "window — raise event capacity or drain with "
        "--events-out".format(
            what="still dropping" if before else "started dropping",
            n=int(dropped),
        ),
        {
            "metric": "obs_events_dropped_total",
            "window_dropped": dropped,
            "total_dropped": last.get("dropped", 0),
            "onset": before == 0,
        },
    )


def _read_atlas_staleness(samples: Sequence[Any]) -> Optional[Reading]:
    stale = _delta(samples, "atlas_stale_intersections_total")
    oldest_age = samples[-1].gauge_value(
        "atlas_age_seconds", {"stat": "oldest"}
    )
    evidence = {
        "metrics": [
            "atlas_stale_intersections_total",
            "atlas_age_seconds",
        ],
        "window_stale_intersections": stale,
        "oldest_age_seconds": oldest_age,
    }
    if stale >= ATLAS_STALE_THRESHOLD or oldest_age is None:
        return Reading(
            stale,
            "atlas staleness: {n:.0f} stale intersections adopted "
            "in the window".format(n=stale),
            evidence,
        )
    return Reading(
        float(oldest_age),
        "atlas staleness: oldest traceroute is {age:.0f} "
        "sim-seconds old (budget {budget:.0f}) — refresh the "
        "atlas".format(age=oldest_age, budget=ATLAS_AGE_THRESHOLD),
        evidence,
        threshold=ATLAS_AGE_THRESHOLD,
    )


def _read_rejection_storm(samples: Sequence[Any]) -> Optional[Reading]:
    deltas = _delta_by_label(samples, "service_rejections_total", "reason")
    rejected = sum(deltas.values())
    return Reading(
        rejected,
        "admission rejections spiking: {n:.0f} in the window "
        "({breakdown})".format(
            n=rejected,
            breakdown=", ".join(
                f"{reason}={int(n)}"
                for reason, n in sorted(deltas.items())
                if n
            ),
        ),
        {
            "metric": "service_rejections_total",
            "window_by_reason": {
                k: v for k, v in sorted(deltas.items()) if v
            },
        },
    )


def _missed_complete(event) -> bool:
    """`status` other than `complete`"""
    return event.fields.get("status") not in (None, "complete")


def _not_a_hit(event) -> bool:
    """`outcome` other than `hit`"""
    return event.fields.get("outcome") != "hit"


def _queue_full(event) -> bool:
    """`reason` is `queue-full`"""
    return event.fields.get("reason") in (None, "queue-full")


def _stale(event) -> bool:
    """`stale` is set"""
    return bool(event.fields.get("stale"))


#: The rules, in evaluation order.
RULES: Tuple[Rule, ...] = (
    Rule(
        kind="slo-burn-rate",
        signal="completion error-budget burn, in multiples of the "
        "budget the 75 % objective allows (`revtr_measurements_total`)",
        window=600.0,
        threshold=1.6,
        read=_read_slo_burn,
        cites=("measure.end",),
        keep=_missed_complete,
    ),
    Rule(
        kind="cache-hit-collapse",
        signal="hit-rate drop below the pre-window baseline, absolute; "
        "a cold cache has none to lose (`cache_lookups_total`)",
        window=600.0,
        threshold=0.25,
        read=_read_cache_collapse,
        cites=("cache.lookup",),
        keep=_not_a_hit,
    ),
    Rule(
        kind="retry-storm",
        signal="engine + scheduler retries (`revtr_retries_total`, "
        "`service_retries_total`)",
        window=600.0,
        threshold=3.0,
        read=_read_retry_storm,
        cites=("degrade.retry", "sched.retry"),
    ),
    Rule(
        kind="quarantine-churn",
        signal="VP quarantines + replacements (`vp_quarantines_total`, "
        "`vp_replacements_total`; cites `vp_quarantined_current`)",
        window=900.0,
        threshold=1.0,
        read=_read_quarantine_churn,
        cites=(
            "degrade.quarantine", "degrade.replace", "degrade.requalify",
        ),
        critical_scale=2.0,
    ),
    Rule(
        kind="queue-buildup",
        signal="queue depth, non-decreasing and grown over the last "
        "3 samples (`service_queue_depth`)",
        window=300.0,
        threshold=8.0,
        read=_read_queue_buildup,
        cites=("sched.reject",),
        keep=_queue_full,
        min_samples=QUEUE_MIN_SAMPLES,
    ),
    Rule(
        kind="event-ring-drops",
        signal="flight-recorder overwrites (the ring's `dropped`, "
        "mirrored as `obs_events_dropped_total`)",
        window=600.0,
        threshold=1.0,
        read=_read_event_drops,
        critical_scale=50.0,
    ),
    Rule(
        kind="atlas-staleness",
        signal="stale intersections adopted "
        "(`atlas_stale_intersections_total`); or, on its own scale, "
        "the oldest atlas traceroute reaching 2 days "
        "(`atlas_age_seconds`)",
        window=900.0,
        threshold=ATLAS_STALE_THRESHOLD,
        read=_read_atlas_staleness,
        cites=("stitch",),
        keep=_stale,
        min_samples=1,
    ),
    Rule(
        kind="rejection-storm",
        signal="admission refusals (`service_rejections_total`)",
        window=300.0,
        threshold=5.0,
        read=_read_rejection_storm,
        cites=("sched.reject",),
    ),
)


def render_rules_table() -> str:
    """:data:`RULES` as the Markdown table DESIGN.md carries
    (``tests/test_health.py`` holds the document to it)."""
    lines = [
        "| finding | signal | window | threshold | critical at "
        "| samples | cites |",
        "|---|---|---|---|---|---|---|",
    ]
    for rule in RULES:
        lines.append(
            "| `{kind}` | {signal} | {window:g}s | {threshold:g} "
            "| {critical:g} | ≥ {samples} | {cites} |".format(
                kind=rule.kind,
                signal=rule.signal,
                window=rule.window,
                threshold=rule.threshold,
                critical=2.0 * rule.critical_scale * rule.threshold,
                samples=rule.min_samples,
                cites=(
                    ", ".join(f"`{kind}`" for kind in rule.cites)
                    + (f" where {rule.keep.__doc__}" if rule.keep else "")
                    or "—"
                ),
            )
        )
    return "\n".join(lines)


class HealthEngine:
    """Evaluate :data:`RULES` over a sampler's retained time-series."""

    def __init__(self, window: Optional[float] = None) -> None:
        #: One window (sim-clock seconds) for every rule, overriding
        #: the table's; ``None`` keeps each rule's own.
        self.window = window

    def evaluate(self, sampler, events=None) -> List[HealthFinding]:
        """Run every rule; returns findings sorted most severe first.

        *events* is an optional :class:`repro.obs.events.EventLog`
        used to cite supporting event seqs; when omitted the engine
        tries ``sampler.obs.events``.
        """
        if events is None:
            events = getattr(getattr(sampler, "obs", None), "events", None)
        findings: List[HealthFinding] = []
        for rule in RULES:
            samples = sampler.window(
                self.window if self.window is not None else rule.window
            )
            if len(samples) < rule.min_samples:
                continue
            reading = rule.read(samples)
            if reading is None:
                continue
            threshold = (
                reading.threshold
                if reading.threshold is not None
                else rule.threshold
            )
            if reading.value < threshold:
                continue
            critical = 2.0 * rule.critical_scale * threshold
            finding = HealthFinding(
                kind=rule.kind,
                severity=(
                    "critical" if reading.value >= critical else "warning"
                ),
                message=reading.message,
                window=(samples[0].sim, samples[-1].sim),
                value=reading.value,
                threshold=threshold,
                evidence=reading.evidence,
            )
            if events is not None and rule.cites:
                finding.event_kinds = rule.cites
                finding.event_seqs = _cited_seqs(
                    events, rule, finding.window
                )
            findings.append(finding)
        findings.sort(
            key=lambda f: (-_SEVERITY_RANK.get(f.severity, 0), f.kind)
        )
        return findings

    @staticmethod
    def status(findings: Sequence[HealthFinding]) -> str:
        """Rollup: healthy / degraded / critical."""
        if any(f.severity == "critical" for f in findings):
            return "critical"
        if any(f.severity == "warning" for f in findings):
            return "degraded"
        return "healthy"


def _cited_seqs(
    events, rule: Rule, window: Tuple[Optional[float], Optional[float]]
) -> List[int]:
    """The newest :data:`MAX_CITED_EVENTS` seqs of *rule*'s cited
    events inside *window* (events without a sim time count as in)."""
    start, end = window
    seqs: List[int] = []
    for kind in rule.cites:
        for event in events.events(kind=kind):
            sim = event.sim
            if start is not None and sim is not None and sim < start:
                continue
            if end is not None and sim is not None and sim > end:
                continue
            if rule.keep is not None and not rule.keep(event):
                continue
            seqs.append(event.seq)
    seqs.sort()
    return seqs[-MAX_CITED_EVENTS:]


def format_findings(
    findings: Sequence[HealthFinding], status: Optional[str] = None
) -> str:
    """Human-readable diagnosis block for ``repro health``/``repro top``."""
    if status is None:
        status = HealthEngine.status(findings)
    lines: List[str] = [f"== health: {status} =="]
    if not findings:
        lines.append("no findings — all signals inside thresholds")
        return "\n".join(lines)
    for finding in findings:
        lines.append(
            "[{sev:<8s}] {kind}: {message}".format(
                sev=finding.severity,
                kind=finding.kind,
                message=finding.message,
            )
        )
        start, end = finding.window
        if start is not None and end is not None:
            lines.append(
                "           window: sim {start:.0f}s → {end:.0f}s  "
                "value={value:.2f}  threshold={threshold:.2f}".format(
                    start=start,
                    end=end,
                    value=finding.value,
                    threshold=finding.threshold,
                )
            )
        if finding.event_seqs:
            seq_text = ", ".join(str(s) for s in finding.event_seqs)
            lines.append(
                "           events ({kinds}): seq {seqs}".format(
                    kinds="/".join(finding.event_kinds),
                    seqs=seq_text,
                )
            )
    return "\n".join(lines)
