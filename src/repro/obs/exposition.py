"""Prometheus-style text exposition for registry snapshots.

Works off the JSON snapshot shape produced by
:meth:`repro.obs.metrics.MetricsRegistry.snapshot`, so the same
renderer serves a live registry (``serve --http``'s ``/metrics``) and
a snapshot loaded back from disk (``repro stats --from FILE``).
"""

from __future__ import annotations

from typing import Any, Dict, List


def _escape_label_value(value: str) -> str:
    return (
        value.replace("\\", "\\\\")
        .replace("\n", "\\n")
        .replace('"', '\\"')
    )


def _escape_help(text: str) -> str:
    # Per the text-format spec, HELP lines escape only backslash and
    # newline (quotes stay raw — unlike label values).
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _format_labels(labels: Dict[str, str]) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{key}="{_escape_label_value(str(value))}"'
        for key, value in sorted(labels.items())
    )
    return "{" + inner + "}"


def _format_value(value: float) -> str:
    if value == int(value):
        return str(int(value))
    return repr(float(value))


def _format_le(le: Any) -> str:
    if isinstance(le, str):
        return le
    return _format_value(le)


def render_text(snapshot: Dict[str, Dict[str, Any]]) -> str:
    """Render a registry snapshot in the Prometheus text format."""
    lines: List[str] = []
    for name in sorted(snapshot):
        family = snapshot[name]
        if family.get("help"):
            lines.append(
                f"# HELP {name} {_escape_help(family['help'])}"
            )
        lines.append(f"# TYPE {name} {family['type']}")
        for series in family["series"]:
            labels = series.get("labels", {})
            if family["type"] == "histogram":
                for le, cumulative in series["buckets"]:
                    bucket_labels = dict(labels)
                    bucket_labels["le"] = _format_le(le)
                    lines.append(
                        f"{name}_bucket{_format_labels(bucket_labels)}"
                        f" {_format_value(cumulative)}"
                    )
                lines.append(
                    f"{name}_sum{_format_labels(labels)}"
                    f" {_format_value(series['sum'])}"
                )
                lines.append(
                    f"{name}_count{_format_labels(labels)}"
                    f" {_format_value(series['count'])}"
                )
            else:
                lines.append(
                    f"{name}{_format_labels(labels)}"
                    f" {_format_value(series['value'])}"
                )
    return "\n".join(lines) + ("\n" if lines else "")
