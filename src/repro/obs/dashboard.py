"""Terminal dashboard rendering for ``repro top``.

Pure text assembly: given the latest metrics snapshot, the time-series
sampler and the current health findings, :func:`render_top` produces
one dashboard frame; :func:`live_view` owns the redraw loop (ANSI
home+clear on TTYs, frame separators otherwise).  Nothing here touches
measurement state, so rendering can run concurrently with a workload
thread.
"""

from __future__ import annotations

import sys
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.obs.health import HealthFinding, format_findings
from repro.obs.slo import format_slo, slo_summary

#: Eight-level block characters, lowest to highest.
SPARK_CHARS = "▁▂▃▄▅▆▇█"

#: ANSI: cursor home + clear to end of screen (less flicker than a
#: full 2J wipe because unchanged cells are simply overwritten).
CLEAR = "\x1b[H\x1b[J"


def sparkline(
    values: Sequence[Optional[float]], width: int = 24
) -> str:
    """Render a numeric series as a fixed-width block-char strip."""
    points = [v for v in values if v is not None]
    if not points:
        return "·" * min(width, 1)
    points = points[-width:]
    low = min(points)
    high = max(points)
    if high <= low:
        return SPARK_CHARS[0] * len(points)
    span = high - low
    out = []
    for value in points:
        idx = int((value - low) / span * (len(SPARK_CHARS) - 1))
        out.append(SPARK_CHARS[idx])
    return "".join(out)


def _fmt(value: Optional[float], digits: int = 2) -> str:
    if value is None:
        return "-"
    if float(value).is_integer() and abs(value) < 1e9:
        return str(int(value))
    return f"{value:.{digits}f}"


#: Counter rows shown in the rates panel: (label, metric, labels).
RATE_ROWS: Tuple[Tuple[str, str, Optional[Dict[str, str]]], ...] = (
    ("measurements", "revtr_measurements_total", None),
    ("probes", "probes_sent_total", None),
    ("retries (engine)", "revtr_retries_total", None),
    ("retries (sched)", "service_retries_total", None),
    ("rejections", "service_rejections_total", None),
    ("quarantines", "vp_quarantines_total", None),
)

#: Gauge rows shown with their latest value + trend.
GAUGE_ROWS: Tuple[Tuple[str, str, Optional[Dict[str, str]]], ...] = (
    ("queue depth", "service_queue_depth", None),
    ("inflight", "service_inflight", None),
    ("VPs quarantined", "vp_quarantined_current", None),
)


def render_top(
    snapshot: Dict[str, Any],
    sampler=None,
    findings: Optional[Sequence[HealthFinding]] = None,
    title: str = "repro top",
    now_sim: Optional[float] = None,
    window: Optional[float] = None,
) -> str:
    """Assemble one dashboard frame from the current telemetry."""
    lines: List[str] = []
    header = f"== {title} =="
    if now_sim is not None:
        header += f"  sim t={now_sim:.1f}s"
    if sampler is not None:
        state = sampler.summary()
        header += "  samples={n}/{cap}".format(
            n=state["samples"], cap=state["capacity"]
        )
        if state["dropped"]:
            header += f" (dropped {state['dropped']})"
    lines.append(header)

    if sampler is not None and len(sampler.samples()) >= 2:
        lines.append("rates (per sim-second, trailing window):")
        for label, metric, labels in RATE_ROWS:
            series = sampler.series(metric, labels, window=window)
            values = [v for _, v in series]
            if not any(values):
                continue
            rate = sampler.rate(metric, labels, window=window)
            delta = sampler.delta(metric, labels, window=window)
            lines.append(
                "  {label:<18s} {spark:<24s} total={total:<8s} "
                "Δwindow={delta:<6s} rate={rate}".format(
                    label=label,
                    spark=sparkline(values),
                    total=_fmt(values[-1] if values else None),
                    delta=_fmt(delta),
                    rate=(
                        f"{rate:.3f}/s" if rate is not None else "-"
                    ),
                )
            )
        gauge_lines: List[str] = []
        for label, metric, labels in GAUGE_ROWS:
            series = sampler.series(
                metric, labels, window=window, kind="gauge"
            )
            values = [v for _, v in series if v is not None]
            if not values or not any(values):
                continue
            gauge_lines.append(
                "  {label:<18s} {spark:<24s} now={now}".format(
                    label=label,
                    spark=sparkline(values),
                    now=_fmt(values[-1]),
                )
            )
        if gauge_lines:
            lines.append("gauges:")
            lines.extend(gauge_lines)

    lines.append(format_slo(slo_summary(snapshot)))
    if findings is not None:
        lines.append(format_findings(findings))
    return "\n".join(lines)


def live_view(
    frame: Callable[[], Tuple[str, bool]],
    interval: float,
    max_frames: int = 0,
    out=None,
    clock: Optional[Callable[[], None]] = None,
) -> int:
    """Run a redraw loop until *frame* reports done (or the frame cap).

    *frame* returns ``(text, done)``; the loop renders, then sleeps
    *interval* wall-seconds (through *clock* if given — tests inject a
    no-op) and repeats.  On a TTY each frame repaints in place via
    ANSI home+clear; otherwise frames are separated by a marker line
    so piped output stays parseable.  Returns the frame count.
    """
    if out is None:
        out = sys.stdout
    is_tty = bool(getattr(out, "isatty", lambda: False)())
    sleep = clock if clock is not None else time.sleep
    frames = 0
    try:
        while True:
            text, done = frame()
            if is_tty:
                out.write(CLEAR + text + "\n")
            else:
                if frames:
                    out.write("\n--- frame {n} ---\n".format(n=frames + 1))
                out.write(text + "\n")
            out.flush()
            frames += 1
            if done or (max_frames and frames >= max_frames):
                break
            sleep(interval)
    except KeyboardInterrupt:
        pass
    return frames
