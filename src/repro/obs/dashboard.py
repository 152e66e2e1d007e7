"""Terminal dashboard rendering for ``repro top``.

Pure text assembly: given one copy of the sampler's ring, whose newest
sample carries the health findings, :func:`render_top` produces one
dashboard frame;
:func:`live_view` owns the redraw loop (ANSI home+clear on TTYs, frame
separators otherwise).  Nothing here touches measurement state or
samples anything: the frame is what the workload thread last published,
so rendering can run beside it.
"""

from __future__ import annotations

import sys
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.obs import timeseries
from repro.obs.health import format_findings
from repro.obs.slo import format_slo, slo_summary

#: Eight-level block characters, lowest to highest.
SPARK_CHARS = "▁▂▃▄▅▆▇█"

#: ANSI: cursor home + clear to end of screen (less flicker than a
#: full 2J wipe because unchanged cells are simply overwritten).
CLEAR = "\x1b[H\x1b[J"

#: Points a sparkline shows: the newest of a series.
SPARK_WIDTH = 24


def sparkline(values: Sequence[Optional[float]]) -> str:
    """Render a numeric series as a fixed-width block-char strip."""
    points = [v for v in values if v is not None]
    if not points:
        return "·"
    points = points[-SPARK_WIDTH:]
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
    samples: List[timeseries.TimeSample],
    capacity: int,
    title: str = "repro top",
) -> str:
    """Assemble one dashboard frame from *samples*, one copy of a
    sampler's ring (oldest first) holding at most *capacity*, and the
    health findings published with the newest."""
    latest = samples[-1] if samples else None
    lines: List[str] = []
    header = f"== {title} =="
    if latest is not None and latest.sim is not None:
        header += f"  sim t={latest.sim:.1f}s"
    header += f"  samples={len(samples)}/{capacity}"
    # Indexes count every sample taken; the ring keeps the newest.
    if samples and samples[0].index:
        header += f" (dropped {samples[0].index})"
    lines.append(header)

    if len(samples) >= 2:
        lines.append("rates (per sim-second, trailing window):")
        for label, metric, labels in RATE_ROWS:
            values = [v for _, v in timeseries.series(samples, metric, labels)]
            if not any(values):
                continue
            rate = timeseries.rate(samples, metric, labels)
            lines.append(
                "  {label:<18s} {spark:<24s} total={total:<8s} "
                "Δwindow={delta:<6s} rate={rate}".format(
                    label=label,
                    spark=sparkline(values),
                    total=_fmt(values[-1] if values else None),
                    delta=_fmt(timeseries.delta(samples, metric, labels)),
                    rate=(
                        f"{rate:.3f}/s" if rate is not None else "-"
                    ),
                )
            )
        gauge_lines: List[str] = []
        for label, metric, labels in GAUGE_ROWS:
            points = timeseries.series(samples, metric, labels, kind="gauge")
            values = [v for _, v in points if v is not None]
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

    lines.append(
        format_slo(slo_summary(latest.metrics if latest is not None else {}))
    )
    if latest is not None:
        lines.append(format_findings(latest.findings))
    return "\n".join(lines)


def live_view(
    frame: Callable[[], Tuple[str, bool]],
    interval: float,
    max_frames: int = 0,
) -> int:
    """Run a redraw loop on stdout until *frame* reports done (or the
    frame cap).

    *frame* returns ``(text, done)``; the loop renders, then sleeps
    *interval* wall-seconds and repeats.  On a TTY each frame repaints
    in place via ANSI home+clear; otherwise frames are separated by a
    marker line so piped output stays parseable.  Returns the frame
    count.
    """
    out = sys.stdout
    is_tty = bool(getattr(out, "isatty", lambda: False)())
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
            time.sleep(interval)
    except KeyboardInterrupt:
        pass
    return frames
