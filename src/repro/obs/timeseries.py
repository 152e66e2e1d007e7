"""Telemetry time-series: a bounded ring of periodic registry snapshots.

The obs stack so far exposes *point-in-time* state (metrics snapshot,
trace tree, event ring).  This module adds the time dimension: a
:class:`TimeSeriesSampler` periodically captures the full registry
snapshot — counters, gauges and histogram buckets — into a bounded ring
of :class:`TimeSample` records, and offers rate/derivative and
sliding-window queries over them.  The health engine
(:mod:`repro.obs.health`) and the live views (``repro top``, the
HTTP endpoint) are all built on it.

Design constraints, in the spirit of the pull-style obs layer:

* **Beside the measurement path, and priced per series.**  Nothing
  inside a measurement calls the sampler; completion hooks in the
  scheduler/service call :meth:`TimeSeriesSampler.maybe_sample`,
  whose not-due cost is one clock read and a float compare.  Due is
  not rare, though: one reverse traceroute advances the serial
  virtual clock by tens of sim-seconds, so at the default
  ``sim_interval`` a sample is taken every second to fourth
  completion (403 samples over the 1 600 requests of the e2e
  benchmark's ``faulted_ops``) — its cost is paid per request, not
  per look.  That cost is O(metric series) and nothing else: every
  pull source reads tallies, none iterates state that grows with the
  workload (DESIGN.md, "Pull sources read tallies"), and the flight
  recorder's totals come from one strided read of its sequence
  cells.  Measured at ~150 series: ~0.5 ms per sample, 0.2 ms of it
  the two ring-accounting reads.
* **Deterministic.**  With ``sim_interval`` driving the ticks, the
  sample schedule is a pure function of the virtual clock, so two runs
  of the same seeded workload produce byte-identical series
  (:meth:`export` excludes wall timestamps by default for exactly this
  reason).
* **Bounded.**  The ring keeps the newest ``capacity`` samples;
  overwritten samples are counted in :attr:`dropped`, mirroring the
  flight recorder's accounting.
"""

from __future__ import annotations

import json
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.obs.metrics import family_series, family_total

#: Default sim-clock seconds between samples.  Virtual workloads
#: advance tens of sim-seconds per measurement, so on a serial clock
#: 30s means a sample every second to fourth completion — not "a few
#: per run"; see the module docstring for what one costs.
DEFAULT_SIM_INTERVAL = 30.0

#: Default ring bound: at the default interval this retains three
#: virtual hours of history.
DEFAULT_CAPACITY = 360


class TimeSample:
    """One periodic capture of the whole registry.

    ``metrics`` is the full JSON snapshot shape of
    :meth:`repro.obs.metrics.MetricsRegistry.snapshot`; ``events`` is a
    small dict with the flight recorder's ``total``/``dropped``
    tallies at capture time (``None`` when no event log is attached),
    used by the health engine to window event sequence numbers.
    """

    __slots__ = ("index", "wall", "sim", "metrics", "events")

    def __init__(
        self,
        index: int,
        wall: float,
        sim: Optional[float],
        metrics: Dict[str, Any],
        events: Optional[Dict[str, int]],
    ) -> None:
        self.index = index
        self.wall = wall
        self.sim = sim
        self.metrics = metrics
        self.events = events

    def to_dict(self, include_wall: bool = False) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "index": self.index,
            "sim": self.sim,
            "metrics": self.metrics,
        }
        if self.events is not None:
            out["events"] = dict(self.events)
        if include_wall:
            out["wall"] = self.wall
        return out

    def gauge_value(
        self, name: str, labels: Optional[Dict[str, str]] = None
    ) -> Optional[float]:
        """First matching gauge series value, or None if absent."""
        for series in family_series(self.metrics, name, labels):
            return series.get("value")
        return None


class TimeSeriesSampler:
    """Periodically snapshot an :class:`Instrumentation`'s registry.

    The one tick source is the virtual clock: a sample is due
    whenever it has advanced at least ``sim_interval`` sim-seconds
    since the last one (``None`` disables ticks; live views pace
    themselves and force captures).

    Hook points call :meth:`maybe_sample`; views force a capture with
    :meth:`sample`.  All query helpers operate on the retained ring.
    """

    def __init__(
        self,
        instrumentation,
        sim_interval: Optional[float] = DEFAULT_SIM_INTERVAL,
        capacity: int = DEFAULT_CAPACITY,
        clock=None,
    ) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.obs = instrumentation
        self.sim_interval = sim_interval
        self.capacity = capacity
        self.clock = clock
        self._ring: List[TimeSample] = []
        self._count = 0
        self._dropped = 0
        self._last_sim: Optional[float] = None

    # -- clock resolution ----------------------------------------------

    def _sim_now(self) -> Optional[float]:
        clock = self.clock
        if clock is None:
            # The sim clock is late-bound onto the tracer/event log by
            # Scenario; adopt it from there the first time it appears.
            events = getattr(self.obs, "events", None)
            clock = getattr(events, "clock", None) if events is not None else None
            if clock is None:
                clock = getattr(getattr(self.obs, "tracer", None), "clock", None)
            if clock is not None:
                self.clock = clock
        return clock.now() if clock is not None else None

    # -- capture --------------------------------------------------------

    def maybe_sample(self) -> Optional[TimeSample]:
        """Capture a sample iff the tick interval has elapsed.

        The not-due path costs one clock read plus a compare — cheap
        enough for per-completion hooks.
        """
        if self.sim_interval is not None:
            sim = self._sim_now()
            if sim is not None and (
                self._last_sim is None
                or sim - self._last_sim >= self.sim_interval
            ):
                return self.sample()
        return None

    def sample(self) -> TimeSample:
        """Unconditionally capture one sample into the ring."""
        registry = self.obs.registry
        sim = self._sim_now()
        metrics = registry.snapshot() if registry is not None else {}
        events = getattr(self.obs, "events", None)
        event_state: Optional[Dict[str, int]] = None
        if events is not None:
            total, dropped, _ = events.accounting()
            event_state = {"total": total, "dropped": dropped}
        record = TimeSample(
            index=self._count,
            wall=time.time(),
            sim=sim,
            metrics=metrics,
            events=event_state,
        )
        self._count += 1
        self._last_sim = sim
        if len(self._ring) >= self.capacity:
            self._ring.pop(0)
            self._dropped += 1
        self._ring.append(record)
        return record

    # -- ring state -----------------------------------------------------

    @property
    def dropped(self) -> int:
        """Samples lost to the ring bound."""
        return self._dropped

    @property
    def total(self) -> int:
        """Samples captured over the sampler's lifetime."""
        return self._count

    def samples(self) -> List[TimeSample]:
        """Retained samples, oldest first."""
        return list(self._ring)

    @property
    def latest(self) -> Optional[TimeSample]:
        return self._ring[-1] if self._ring else None

    def window(self, seconds: Optional[float]) -> List[TimeSample]:
        """Retained samples within the trailing sim window.

        ``None`` (or samples without sim timestamps) returns the whole
        ring.  The sample immediately *before* the window boundary is
        included so deltas across the window edge are well-defined.
        """
        if not self._ring or seconds is None:
            return list(self._ring)
        end = self._ring[-1].sim
        if end is None:
            return list(self._ring)
        start = end - seconds
        out: List[TimeSample] = []
        for record in self._ring:
            if record.sim is None or record.sim >= start:
                out.append(record)
            else:
                # keep only the newest pre-window sample as the base
                out = [record]
        return out

    # -- windowed queries -----------------------------------------------

    def series(
        self,
        name: str,
        labels: Optional[Dict[str, str]] = None,
        window: Optional[float] = None,
        kind: str = "counter",
    ) -> List[Tuple[Optional[float], Optional[float]]]:
        """``(sim, value)`` points for one metric across the window."""
        reader: Callable[[TimeSample], Optional[float]]
        if kind == "gauge":
            reader = lambda s: s.gauge_value(name, labels)  # noqa: E731
        else:
            reader = lambda s: family_total(s.metrics, name, labels)  # noqa: E731
        return [(s.sim, reader(s)) for s in self.window(window)]

    def delta(
        self,
        name: str,
        labels: Optional[Dict[str, str]] = None,
        window: Optional[float] = None,
    ) -> float:
        """Newest-minus-oldest counter total across the window."""
        samples = self.window(window)
        if len(samples) < 2:
            return 0.0
        newest = family_total(samples[-1].metrics, name, labels)
        oldest = family_total(samples[0].metrics, name, labels)
        return max(0.0, newest - oldest)

    def rate(
        self,
        name: str,
        labels: Optional[Dict[str, str]] = None,
        window: Optional[float] = None,
    ) -> Optional[float]:
        """Per-sim-second rate of a counter across the window."""
        samples = self.window(window)
        if len(samples) < 2:
            return None
        first, last = samples[0], samples[-1]
        if first.sim is None or last.sim is None:
            return None
        span = last.sim - first.sim
        if span <= 0:
            return None
        change = family_total(last.metrics, name, labels) - family_total(
            first.metrics, name, labels
        )
        return max(0.0, change) / span

    # -- export ---------------------------------------------------------

    def summary(self) -> Dict[str, Any]:
        """Small JSON-able state block for introspection/snapshots."""
        first = self._ring[0] if self._ring else None
        last = self._ring[-1] if self._ring else None
        return {
            "samples": len(self._ring),
            "total": self._count,
            "dropped": self._dropped,
            "capacity": self.capacity,
            "sim_interval": self.sim_interval,
            "span_sim": (
                [first.sim, last.sim] if first is not None else None
            ),
        }

    def export(self, include_wall: bool = False) -> Dict[str, Any]:
        """JSON-able dump of the retained series.

        Wall timestamps are excluded by default so sim-driven runs
        export byte-identically across processes; pass
        ``include_wall=True`` for operational dumps where real
        timestamps matter more than reproducibility.
        """
        return {
            "schema_version": 1,
            "summary": self.summary(),
            "samples": [
                record.to_dict(include_wall=include_wall)
                for record in self._ring
            ],
        }

    def export_json(self, **kwargs: Any) -> str:
        """Canonical JSON text of :meth:`export` (stable key order)."""
        return json.dumps(self.export(**kwargs), sort_keys=True, indent=2)


def install_sampler(
    instrumentation,
    sim_interval: Optional[float] = DEFAULT_SIM_INTERVAL,
    capacity: int = DEFAULT_CAPACITY,
    clock=None,
) -> TimeSeriesSampler:
    """Create a sampler and hang it on the instrumentation facade.

    Hook points reach it as ``obs.sampler`` (``None`` on the null
    facade and on live facades without one), so installation is a
    single attribute assignment — no re-wiring of instrumented objects.
    """
    sampler = TimeSeriesSampler(
        instrumentation,
        sim_interval=sim_interval,
        capacity=capacity,
        clock=clock,
    )
    instrumentation.sampler = sampler
    return sampler
