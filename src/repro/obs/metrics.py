"""A metrics registry.

Three metric types — :class:`Counter`, :class:`Gauge`, and fixed-bucket
:class:`Histogram` — are organised into *families* addressable by name.
A family without labels acts as a single series; ``family.labels(...)``
returns (creating on first use) the labeled child for one label
combination, e.g. ``revtr_steps_total{kind="rr_spoofed"}``.

The registry has one writer: the thread that runs the workload updates
series, runs the pull collectors and takes snapshots, so it takes no
lock.  Other threads read what that writer published, a snapshot held
in a :class:`~repro.obs.timeseries.TimeSample` (DESIGN.md, "One writer,
published samples").  Snapshots are plain JSON-able dicts; the
Prometheus text rendering lives in :mod:`repro.obs.exposition`.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

LabelKey = Tuple[Tuple[str, str], ...]

#: Default histogram bucket upper bounds, in (sim-)seconds.  Revtr
#: latencies are dominated by 10 s spoofed-batch timeouts, so the grid
#: is coarse below a minute and covers multi-batch measurements above.
DEFAULT_TIME_BUCKETS: Tuple[float, ...] = (
    0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0, 120.0, 300.0, 600.0, 1800.0,
)


def _label_key(labels: Dict[str, Any]) -> LabelKey:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


class _Child:
    """Base for one labeled series of a family."""

    __slots__ = ()


class Counter(_Child):
    """A monotonically increasing value."""

    __slots__ = ("_value",)

    def __init__(self) -> None:
        self._value = 0.0

    def inc(self, n: float = 1.0) -> None:
        if n < 0:
            raise ValueError(f"counter increment must be >= 0, got {n}")
        self._value += n

    def set_total(self, value: float) -> None:
        """Overwrite the absolute value.

        For pull-style collectors that mirror an externally maintained
        monotonic tally (a ProbeCounter, cache stats, ...) at
        collection time.  Regular call sites should use :meth:`inc`.
        """
        self._value = float(value)

    @property
    def value(self) -> float:
        return self._value


class Gauge(_Child):
    """A value that can go up and down."""

    __slots__ = ("_value",)

    def __init__(self) -> None:
        self._value = 0.0

    def set(self, value: float) -> None:
        self._value = float(value)

    def inc(self, n: float = 1.0) -> None:
        self._value += n

    @property
    def value(self) -> float:
        return self._value


class Histogram(_Child):
    """Fixed-bucket histogram (cumulative buckets + sum + count)."""

    __slots__ = ("edges", "_bucket_counts", "_sum", "_count")

    def __init__(self, edges: Sequence[float]) -> None:
        self.edges: Tuple[float, ...] = tuple(edges)
        # One slot per finite edge plus the implicit +Inf bucket.
        self._bucket_counts = [0] * (len(self.edges) + 1)
        self._sum = 0.0
        self._count = 0

    def observe(self, value: float) -> None:
        self._bucket_counts[bisect_left(self.edges, value)] += 1
        self._sum += value
        self._count += 1

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    def cumulative_buckets(self) -> List[Tuple[float, int]]:
        """``(upper_bound, cumulative_count)`` pairs, +Inf last."""
        out: List[Tuple[float, int]] = []
        running = 0
        for edge, n in zip(self.edges, self._bucket_counts):
            running += n
            out.append((edge, running))
        out.append((float("inf"), self._count))
        return out


class MetricFamily:
    """All series sharing one metric name."""

    def __init__(
        self,
        name: str,
        kind: str,
        help: str,
        buckets: Optional[Sequence[float]] = None,
    ) -> None:
        self.name = name
        self.kind = kind
        self.help = help
        self.buckets = tuple(buckets) if buckets is not None else None
        self._children: Dict[LabelKey, _Child] = {}
        # Children in label-key order, rebuilt by series() after a
        # child is created: snapshots are taken far more often than
        # series appear.
        self._sorted: Optional[List[Tuple[LabelKey, _Child]]] = None

    def _make_child(self) -> _Child:
        if self.kind == "counter":
            return Counter()
        if self.kind == "gauge":
            return Gauge()
        edges = (
            self.buckets
            if self.buckets is not None
            else DEFAULT_TIME_BUCKETS
        )
        return Histogram(edges)

    def labels(self, **labels: Any):
        """The child for one label combination, created on first use."""
        key = _label_key(labels)
        child = self._children.get(key)
        if child is None:
            child = self._children[key] = self._make_child()
            self._sorted = None
        return child

    # Unlabeled convenience: the family acts as its own default child.

    def inc(self, n: float = 1.0) -> None:
        self.labels().inc(n)  # type: ignore[union-attr]

    def set(self, value: float) -> None:
        self.labels().set(value)  # type: ignore[union-attr]

    def observe(self, value: float) -> None:
        self.labels().observe(value)  # type: ignore[union-attr]

    def series(self) -> List[Tuple[Dict[str, str], _Child]]:
        ordered = self._sorted
        if ordered is None:
            ordered = self._sorted = sorted(self._children.items())
        # Fresh label dicts: snapshots hand them to callers.
        return [(dict(key), child) for key, child in ordered]


class MetricsRegistry:
    """Named metric families."""

    def __init__(self) -> None:
        self._families: Dict[str, MetricFamily] = {}
        self._collectors: List[Any] = []

    def register_collector(self, fn) -> None:
        """Run *fn* before every snapshot (pull-style collection).

        Collectors let hot paths keep plain Python tallies and mirror
        them into metric series only when somebody actually looks —
        the same model as Prometheus custom collectors.
        """
        if fn not in self._collectors:
            self._collectors.append(fn)

    def _family(
        self,
        name: str,
        kind: str,
        help: str,
        buckets: Optional[Sequence[float]] = None,
    ) -> MetricFamily:
        family = self._families.get(name)
        if family is None:
            family = MetricFamily(name, kind, help, buckets=buckets)
            self._families[name] = family
        elif family.kind != kind:
            raise ValueError(
                f"metric {name!r} already registered as "
                f"{family.kind}, not {kind}"
            )
        return family

    def counter(self, name: str, help: str = "") -> MetricFamily:
        return self._family(name, "counter", help)

    def gauge(self, name: str, help: str = "") -> MetricFamily:
        return self._family(name, "gauge", help)

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: Optional[Sequence[float]] = None,
    ) -> MetricFamily:
        return self._family(name, "histogram", help, buckets=buckets)

    def families(self) -> List[MetricFamily]:
        return [self._families[name] for name in sorted(self._families)]

    def __contains__(self, name: str) -> bool:
        return name in self._families

    # ------------------------------------------------------------------
    # Snapshots
    # ------------------------------------------------------------------

    def snapshot(self) -> Dict[str, Dict[str, Any]]:
        """A JSON-able view of every series, after running the pull
        collectors; the writer's to call.

        Shape::

            {name: {"type": ..., "help": ...,
                    "series": [{"labels": {...}, "value": v}  # counter/gauge
                               | {"labels": {...}, "sum": s, "count": n,
                                  "buckets": [[le, cumulative], ...]}]}}
        """
        for fn in self._collectors:
            fn()
        out: Dict[str, Dict[str, Any]] = {}
        for family in self.families():
            series: List[Dict[str, Any]] = []
            for labels, child in family.series():
                if isinstance(child, Histogram):
                    series.append(
                        {
                            "labels": labels,
                            "sum": child.sum,
                            "count": child.count,
                            # +Inf spelled out so the snapshot is
                            # strict JSON, not just json-module JSON.
                            "buckets": [
                                ["+Inf" if le == float("inf") else le, n]
                                for le, n in child.cumulative_buckets()
                            ],
                        }
                    )
                else:
                    series.append({"labels": labels, "value": child.value})
            out[family.name] = {
                "type": family.kind,
                "help": family.help,
                "series": series,
            }
        return out


# ----------------------------------------------------------------------
# Snapshot readers: the one place that walks the snapshot shape above,
# whether the snapshot is live, a sampler's, or loaded back from disk.
# ----------------------------------------------------------------------


def family_series(
    snapshot: Dict[str, Any],
    name: str,
    labels: Optional[Dict[str, str]] = None,
) -> Iterator[Dict[str, Any]]:
    """One family's series in *snapshot* whose labels include *labels*
    (every series when None; nothing when the family is absent)."""
    family = snapshot.get(name)
    if not family:
        return
    for series in family.get("series", []):
        if labels:
            have = series.get("labels", {})
            if any(have.get(k) != v for k, v in labels.items()):
                continue
        yield series


def family_total(
    snapshot: Dict[str, Any],
    name: str,
    labels: Optional[Dict[str, str]] = None,
) -> float:
    """Sum of the values :func:`family_series` selects (0.0 if none)."""
    return sum(
        series.get("value", 0.0)
        for series in family_series(snapshot, name, labels)
    )


def family_by_label(
    snapshot: Dict[str, Any], name: str, label: str
) -> Dict[str, float]:
    """``{label_value: total}`` for one family, over the series that
    carry *label*."""
    out: Dict[str, float] = {}
    for series in family_series(snapshot, name):
        value = series.get("labels", {}).get(label)
        if value is not None:
            out[value] = out.get(value, 0.0) + series.get("value", 0.0)
    return out


def check_snapshot(doc: Any, source: str) -> Dict[str, Any]:
    """*doc* if it has the snapshot shape, else :class:`ValueError`
    naming *source*, the family and the field.

    For snapshots that arrive from outside the process (``repro stats
    --from``): the readers above, :mod:`repro.obs.slo` and
    :mod:`repro.obs.exposition` index into the document without
    looking, so valid JSON of the wrong shape is refused here instead
    of escaping from them as a ``KeyError`` / ``AttributeError``.
    """

    def bad(what: str) -> ValueError:
        return ValueError(f"{source} is not a metrics snapshot: {what}")

    if not isinstance(doc, dict):
        raise bad(f"top level is {type(doc).__name__}, not an object")
    for name, family in doc.items():
        kind = family.get("type") if isinstance(family, dict) else None
        if kind not in ("counter", "gauge", "histogram"):
            raise bad(
                f"family {name!r} has no 'type' of counter, gauge "
                "or histogram"
            )
        if not isinstance(family.get("series"), list) or not isinstance(
            family.get("help", ""), str
        ):
            raise bad(
                f"family {name!r} needs a 'series' list and a string "
                "'help'"
            )
        grid = None
        for index, series in enumerate(family["series"]):
            where = f"family {name!r} series {index}"
            labels = (
                series.get("labels", {})
                if isinstance(series, dict)
                else None
            )
            if not isinstance(labels, dict) or not all(
                isinstance(value, str) for value in labels.values()
            ):
                raise bad(f"{where} is not an object with string 'labels'")
            for field in (
                ("sum", "count") if kind == "histogram" else ("value",)
            ):
                if not _is_number(series.get(field)):
                    raise bad(f"{where} has no finite number {field!r}")
            if kind != "histogram":
                continue
            buckets = series.get("buckets")
            if not isinstance(buckets, list) or not all(
                isinstance(bucket, list)
                and len(bucket) == 2
                and (bucket[0] == "+Inf" or _is_number(bucket[0]))
                and _is_number(bucket[1])
                for bucket in buckets
            ):
                raise bad(
                    f"{where} 'buckets' is not a list of [le, count] "
                    "pairs"
                )
            # A family has one bucket grid (every declared histogram
            # uses DEFAULT_TIME_BUCKETS), and the readers sum its
            # series edge by edge.
            edges = [bucket[0] for bucket in buckets]
            if grid is None:
                grid = edges
            elif edges != grid:
                raise bad(f"{where} has other bucket edges than series 0")
    return doc


def _is_number(value: Any) -> bool:
    if isinstance(value, float):
        return math.isfinite(value)
    return isinstance(value, int) and not isinstance(value, bool)
