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

The rules table is intentionally declarative — signal → window →
threshold → finding — and mirrored in ``DESIGN.md``.  Windows and
thresholds are the values in :data:`RULES_TABLE` and the constants
below it, tuned for the small/tiny simulated scenarios the CLI runs;
the one thing a caller varies is a single window for every rule
(``HealthEngine(window=...)``, ``repro health --window``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

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


#: The rules, in evaluation order: signal → window (sim-clock seconds)
#: → threshold → finding kind.  The contract mirrored in DESIGN.md;
#: :meth:`HealthEngine.evaluate` reads each rule's window and
#: threshold from here.
RULES_TABLE: Tuple[Tuple[str, float, float, str], ...] = (
    # Error-budget burn: window error fraction / (1 - SLO_TARGET).
    (
        "completion error-budget burn (revtr_measurements_total)",
        600.0,
        1.6,
        "slo-burn-rate",
    ),
    # Absolute drop of the windowed hit rate below the pre-window
    # baseline (a cold cache never had a baseline to lose).
    (
        "cache hit rate vs pre-window baseline (cache_lookups_total)",
        600.0,
        0.25,
        "cache-hit-collapse",
    ),
    (
        "engine + scheduler retries (revtr_retries_total, service_retries_total)",
        600.0,
        3.0,
        "retry-storm",
    ),
    (
        "VP quarantines + replacements (vp_quarantines_total, vp_replacements_total)",
        900.0,
        1.0,
        "quarantine-churn",
    ),
    # Depth non-decreasing across the trailing QUEUE_MIN_SAMPLES
    # samples and at/above the threshold.
    (
        "queue depth trend (service_queue_depth)",
        300.0,
        8.0,
        "queue-buildup",
    ),
    # Overwrites beginning (or accelerating) inside the window.
    (
        "flight-recorder overwrites (obs_events_dropped_total)",
        600.0,
        1.0,
        "event-ring-drops",
    ),
    # Stale intersections adopted per window, or the oldest atlas
    # traceroute exceeding ATLAS_AGE_THRESHOLD.
    (
        "stale intersections + atlas age (atlas_stale_intersections_total, atlas_age_seconds)",
        900.0,
        3.0,
        "atlas-staleness",
    ),
    (
        "admission refusals (service_rejections_total)",
        300.0,
        5.0,
        "rejection-storm",
    ),
)

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
#: Oldest atlas traceroute age (sim-seconds) that counts as stale.
ATLAS_AGE_THRESHOLD = 2 * 86400.0


def _window_bounds(samples: Sequence[Any]) -> Tuple[Optional[float], Optional[float]]:
    if not samples:
        return (None, None)
    return (samples[0].sim, samples[-1].sim)


def _severity(value: float, threshold: float) -> str:
    return "critical" if value >= 2.0 * threshold else "warning"


class HealthEngine:
    """Evaluate health rules over a sampler's retained time-series."""

    def __init__(self, window: Optional[float] = None) -> None:
        #: One window (sim-clock seconds) for every rule, overriding
        #: the table's; ``None`` keeps each rule's own.
        self.window = window
        self._rules: Dict[str, Callable[..., Optional[HealthFinding]]] = {
            "slo-burn-rate": self._rule_slo_burn,
            "cache-hit-collapse": self._rule_cache_collapse,
            "retry-storm": self._rule_retry_storm,
            "quarantine-churn": self._rule_quarantine_churn,
            "queue-buildup": self._rule_queue_buildup,
            "event-ring-drops": self._rule_event_drops,
            "atlas-staleness": self._rule_atlas_staleness,
            "rejection-storm": self._rule_rejection_storm,
        }

    # -- entry points ---------------------------------------------------

    def evaluate(self, sampler, events=None) -> List[HealthFinding]:
        """Run every rule; returns findings sorted most severe first.

        *events* is an optional :class:`repro.obs.events.EventLog`
        used to cite supporting event seqs; when omitted the engine
        tries ``sampler.obs.events``.
        """
        if events is None:
            events = getattr(getattr(sampler, "obs", None), "events", None)
        findings: List[HealthFinding] = []
        for _signal, window, threshold, kind in RULES_TABLE:
            if self.window is not None:
                window = self.window
            finding = self._rules[kind](sampler, window, threshold)
            if finding is None:
                continue
            self._attach_events(finding, events)
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

    # -- event correlation ----------------------------------------------

    #: finding kind -> (event kinds, optional field filter) used to
    #: cite flight-recorder evidence.
    EVENT_CORRELATION: Dict[str, Tuple[Tuple[str, ...], Optional[Callable]]] = {
        "slo-burn-rate": (
            ("measure.end",),
            lambda e: e.fields.get("status") not in (None, "complete"),
        ),
        "cache-hit-collapse": (
            ("cache.lookup",),
            lambda e: e.fields.get("outcome") != "hit",
        ),
        "retry-storm": (("degrade.retry", "sched.retry"), None),
        "quarantine-churn": (
            ("degrade.quarantine", "degrade.replace", "degrade.requalify"),
            None,
        ),
        "queue-buildup": (
            ("sched.reject",),
            lambda e: e.fields.get("reason") in (None, "queue-full"),
        ),
        "atlas-staleness": (
            ("intersect",),
            lambda e: e.fields.get("outcome") == "stale",
        ),
        "rejection-storm": (("sched.reject",), None),
    }

    def _attach_events(self, finding: HealthFinding, events) -> None:
        if events is None:
            return
        kinds, keep = self.EVENT_CORRELATION.get(finding.kind, ((), None))
        if not kinds:
            return
        start, end = finding.window
        seqs: List[int] = []
        for kind in kinds:
            for event in events.events(kind=kind):
                sim = event.sim
                if start is not None and sim is not None and sim < start:
                    continue
                if end is not None and sim is not None and sim > end:
                    continue
                if keep is not None and not keep(event):
                    continue
                seqs.append(event.seq)
        seqs.sort()
        finding.event_kinds = kinds
        finding.event_seqs = seqs[-MAX_CITED_EVENTS:]

    # -- rules ----------------------------------------------------------

    def _rule_slo_burn(
        self, sampler, window: float, threshold: float
    ) -> Optional[HealthFinding]:
        samples = sampler.window(window)
        if len(samples) < 2:
            return None
        first, last = samples[0], samples[-1]
        new = last.counter_by_label("revtr_measurements_total", "status")
        old = first.counter_by_label("revtr_measurements_total", "status")
        deltas = {
            status: new.get(status, 0.0) - old.get(status, 0.0)
            for status in new
        }
        total = sum(deltas.values())
        if total < SLO_MIN_REQUESTS:
            return None
        errors = total - deltas.get("complete", 0.0)
        error_fraction = errors / total
        allowed = max(1e-9, 1.0 - SLO_TARGET)
        burn = error_fraction / allowed
        if burn < threshold:
            return None
        bounds = _window_bounds(samples)
        return HealthFinding(
            kind="slo-burn-rate",
            severity=_severity(burn, threshold),
            message=(
                "completion SLO burning at {burn:.1f}x budget: "
                "{errors:.0f}/{total:.0f} measurements missed "
                "'complete' in the window (objective {target:.0%})".format(
                    burn=burn,
                    errors=errors,
                    total=total,
                    target=SLO_TARGET,
                )
            ),
            window=bounds,
            value=burn,
            threshold=threshold,
            evidence={
                "metric": "revtr_measurements_total",
                "window_statuses": {
                    k: v for k, v in sorted(deltas.items()) if v
                },
                "error_fraction": error_fraction,
                "slo_target": SLO_TARGET,
            },
        )

    def _rule_cache_collapse(
        self, sampler, window: float, threshold: float
    ) -> Optional[HealthFinding]:
        samples = sampler.window(window)
        if len(samples) < 2:
            return None
        first, last = samples[0], samples[-1]
        new = last.counter_by_label("cache_lookups_total", "outcome")
        old = first.counter_by_label("cache_lookups_total", "outcome")
        lookups = sum(new.values()) - sum(old.values())
        if lookups < CACHE_MIN_LOOKUPS:
            return None
        hits = new.get("hit", 0.0) - old.get("hit", 0.0)
        window_rate = hits / lookups
        baseline_lookups = sum(old.values())
        if baseline_lookups <= 0:
            return None  # cold cache: nothing collapsed
        baseline_rate = old.get("hit", 0.0) / baseline_lookups
        if baseline_rate < CACHE_BASELINE_RATE:
            return None
        drop = baseline_rate - window_rate
        if drop < threshold:
            return None
        bounds = _window_bounds(samples)
        return HealthFinding(
            kind="cache-hit-collapse",
            severity=_severity(drop, threshold),
            message=(
                "measurement-cache hit rate collapsed: {now:.0%} in the "
                "window vs {base:.0%} baseline over {n:.0f} lookups".format(
                    now=window_rate, base=baseline_rate, n=lookups
                )
            ),
            window=bounds,
            value=drop,
            threshold=threshold,
            evidence={
                "metric": "cache_lookups_total",
                "window_hit_rate": window_rate,
                "baseline_hit_rate": baseline_rate,
                "window_lookups": lookups,
            },
        )

    def _rule_retry_storm(
        self, sampler, window: float, threshold: float
    ) -> Optional[HealthFinding]:
        samples = sampler.window(window)
        if len(samples) < 2:
            return None
        engine = sampler.delta("revtr_retries_total", window=window)
        sched = sampler.delta("service_retries_total", window=window)
        retries = engine + sched
        if retries < threshold:
            return None
        measurements = sampler.delta(
            "revtr_measurements_total", window=window
        )
        bounds = _window_bounds(samples)
        return HealthFinding(
            kind="retry-storm",
            severity=_severity(retries, threshold),
            message=(
                "retry storm: {n:.0f} degradation retries in the window "
                "({engine:.0f} engine, {sched:.0f} scheduler) across "
                "{m:.0f} measurements".format(
                    n=retries, engine=engine, sched=sched, m=measurements
                )
            ),
            window=bounds,
            value=retries,
            threshold=threshold,
            evidence={
                "metrics": [
                    "revtr_retries_total",
                    "service_retries_total",
                ],
                "engine_retries": engine,
                "scheduler_retries": sched,
                "window_measurements": measurements,
                "retries_per_measurement": (
                    retries / measurements if measurements else None
                ),
            },
        )

    def _rule_quarantine_churn(
        self, sampler, window: float, threshold: float
    ) -> Optional[HealthFinding]:
        samples = sampler.window(window)
        if len(samples) < 2:
            return None
        quarantines = sampler.delta(
            "vp_quarantines_total", window=window
        )
        replacements = sampler.delta(
            "vp_replacements_total", window=window
        )
        churn = quarantines + replacements
        if churn < threshold:
            return None
        latest = samples[-1]
        active = latest.gauge_value("vp_quarantined_current") or 0.0
        bounds = _window_bounds(samples)
        return HealthFinding(
            kind="quarantine-churn",
            severity=_severity(churn, 2.0 * threshold),
            message=(
                "VP churn: {q:.0f} quarantines and {r:.0f} replacements "
                "in the window ({a:.0f} VPs quarantined now)".format(
                    q=quarantines, r=replacements, a=active
                )
            ),
            window=bounds,
            value=churn,
            threshold=threshold,
            evidence={
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

    def _rule_queue_buildup(
        self, sampler, window: float, threshold: float
    ) -> Optional[HealthFinding]:
        samples = sampler.window(window)
        if len(samples) < QUEUE_MIN_SAMPLES:
            return None
        depths = [
            s.gauge_value("service_queue_depth") for s in samples
        ]
        depths = [d for d in depths if d is not None]
        if len(depths) < QUEUE_MIN_SAMPLES:
            return None
        tail = depths[-QUEUE_MIN_SAMPLES:]
        non_decreasing = all(b >= a for a, b in zip(tail, tail[1:]))
        if not non_decreasing or tail[-1] < threshold:
            return None
        if tail[-1] <= tail[0]:
            return None  # flat at threshold isn't buildup
        bounds = _window_bounds(samples)
        return HealthFinding(
            kind="queue-buildup",
            severity=_severity(tail[-1], threshold),
            message=(
                "scheduler queue building up: depth {d:.0f} and "
                "non-decreasing over the last {n} samples".format(
                    d=tail[-1], n=len(tail)
                )
            ),
            window=bounds,
            value=tail[-1],
            threshold=threshold,
            evidence={
                "metric": "service_queue_depth",
                "depths": depths,
            },
        )

    def _rule_event_drops(
        self, sampler, window: float, threshold: float
    ) -> Optional[HealthFinding]:
        samples = sampler.window(window)
        if len(samples) < 2:
            return None
        first, last = samples[0], samples[-1]
        if last.events is None or first.events is None:
            return None
        dropped = last.events.get("dropped", 0) - first.events.get(
            "dropped", 0
        )
        if dropped < threshold:
            return None
        bounds = _window_bounds(samples)
        onset = first.events.get("dropped", 0) == 0
        return HealthFinding(
            kind="event-ring-drops",
            severity=_severity(float(dropped), 50.0 * threshold),
            message=(
                "flight recorder {what}: {n} events overwritten in the "
                "window — raise event capacity or drain with "
                "--events-out".format(
                    what=(
                        "started dropping" if onset else "still dropping"
                    ),
                    n=int(dropped),
                )
            ),
            window=bounds,
            value=float(dropped),
            threshold=threshold,
            evidence={
                "metric": "obs_events_dropped_total",
                "window_dropped": dropped,
                "total_dropped": last.events.get("dropped", 0),
                "onset": onset,
            },
        )

    def _rule_atlas_staleness(
        self, sampler, window: float, threshold: float
    ) -> Optional[HealthFinding]:
        samples = sampler.window(window)
        if len(samples) < 1:
            return None
        stale = (
            sampler.delta(
                "atlas_stale_intersections_total", window=window
            )
            if len(samples) >= 2
            else 0.0
        )
        latest = samples[-1]
        oldest_age = latest.gauge_value(
            "atlas_age_seconds", {"stat": "oldest"}
        )
        stale_breach = stale >= threshold
        age_breach = (
            oldest_age is not None and oldest_age >= ATLAS_AGE_THRESHOLD
        )
        if not stale_breach and not age_breach:
            return None
        bounds = _window_bounds(samples)
        if stale_breach:
            value = stale
            message = (
                "atlas staleness: {n:.0f} stale intersections adopted "
                "in the window".format(n=stale)
            )
        else:
            value, threshold = float(oldest_age), ATLAS_AGE_THRESHOLD
            message = (
                "atlas staleness: oldest traceroute is {age:.0f} "
                "sim-seconds old (budget {budget:.0f}) — refresh the "
                "atlas".format(age=oldest_age, budget=ATLAS_AGE_THRESHOLD)
            )
        return HealthFinding(
            kind="atlas-staleness",
            severity=_severity(value, threshold),
            message=message,
            window=bounds,
            value=value,
            threshold=threshold,
            evidence={
                "metrics": [
                    "atlas_stale_intersections_total",
                    "atlas_age_seconds",
                ],
                "window_stale_intersections": stale,
                "oldest_age_seconds": oldest_age,
            },
        )

    def _rule_rejection_storm(
        self, sampler, window: float, threshold: float
    ) -> Optional[HealthFinding]:
        samples = sampler.window(window)
        if len(samples) < 2:
            return None
        first, last = samples[0], samples[-1]
        new = last.counter_by_label("service_rejections_total", "reason")
        old = first.counter_by_label("service_rejections_total", "reason")
        deltas = {
            reason: new.get(reason, 0.0) - old.get(reason, 0.0)
            for reason in new
        }
        rejected = sum(deltas.values())
        if rejected < threshold:
            return None
        bounds = _window_bounds(samples)
        breakdown = ", ".join(
            f"{reason}={int(n)}"
            for reason, n in sorted(deltas.items())
            if n
        )
        return HealthFinding(
            kind="rejection-storm",
            severity=_severity(rejected, threshold),
            message=(
                "admission rejections spiking: {n:.0f} in the window "
                "({breakdown})".format(n=rejected, breakdown=breakdown)
            ),
            window=bounds,
            value=rejected,
            threshold=threshold,
            evidence={
                "metric": "service_rejections_total",
                "window_by_reason": {
                    k: v for k, v in sorted(deltas.items()) if v
                },
            },
        )


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
