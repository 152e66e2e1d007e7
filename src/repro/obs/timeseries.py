"""Telemetry time-series: a bounded ring of periodic registry snapshots.

The obs stack so far exposes *point-in-time* state (metrics snapshot,
event ring).  This module adds the time dimension: a
:class:`TimeSeriesSampler` periodically captures the full registry
snapshot — counters, gauges and histogram buckets — into a bounded ring
of :class:`TimeSample` records, and offers rate/derivative and
sliding-window queries over them.  The health engine
(:mod:`repro.obs.health`) and the live views (``repro top``, the
HTTP endpoint) are all built on it.

Design constraints, in the spirit of the pull-style obs layer:

* **One writer, published samples.**  Only the thread that runs the
  workload samples, and so only it runs the registry's pull
  collectors.  A sample is the published snapshot: ``/metrics``,
  ``/health`` and ``repro top`` read :attr:`TimeSeriesSampler.latest`
  or one copy of the ring and never sample themselves, so looking at
  a run does not change what it records.  ``/health`` and ``top``
  render the findings the writer evaluated as it published the
  sample, so they are as fresh as the last sample, at most one
  ``sim_interval`` old, and no reader touches the flight recorder.

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
  recorder's totals are its emit count.  Measured at the ~80 series
  of ``faulted_ops`` on a 2-CPU host: ~0.2 ms per sample, plus the
  health rules when a reader attached them; a sampler with no reader
  pays one ``is None`` test for those.
* **Deterministic.**  With ``sim_interval`` driving the ticks, the
  sample schedule is a pure function of the virtual clock, so two runs
  of the same seeded workload produce byte-identical series
  (:meth:`export` excludes wall timestamps by default for exactly this
  reason).
* **Bounded.**  The ring keeps the newest :data:`DEFAULT_CAPACITY`
  samples; overwritten samples are counted in :attr:`dropped`,
  mirroring the flight recorder's accounting.
"""

from __future__ import annotations

import json
import time
from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

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
    tallies at capture time, used by the health engine to window event
    sequence numbers.
    ``findings`` are the health findings the writer evaluated as it
    published the sample (empty when no reader attached a health
    engine); :meth:`to_dict` leaves them out, so exports do not depend
    on who watched.
    """

    __slots__ = ("index", "wall", "sim", "metrics", "events", "findings")

    def __init__(
        self,
        index: int,
        wall: float,
        sim: Optional[float],
        metrics: Dict[str, Any],
        events: Dict[str, int],
    ) -> None:
        self.index = index
        self.wall = wall
        self.sim = sim
        self.metrics = metrics
        self.events = events
        self.findings: List[Any] = []

    def to_dict(self, include_wall: bool = False) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "index": self.index,
            "sim": self.sim,
            "metrics": self.metrics,
            "events": dict(self.events),
        }
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
    since the last one (``None`` disables ticks).

    One writer, published samples: the thread that runs the workload
    is the only one that calls :meth:`maybe_sample` / :meth:`sample`,
    and publishing is one append to the ring.  Any other thread reads
    :attr:`latest` or one copy of the ring (:meth:`samples`) and runs
    the queries below on that copy, never on the live ring.  A reader
    that wants health findings attaches a
    :class:`~repro.obs.health.HealthEngine` as :attr:`health` from the
    writer's thread before it starts; each later sample then carries
    them (:attr:`TimeSample.findings`).
    """

    def __init__(
        self,
        instrumentation,
        sim_interval: Optional[float] = DEFAULT_SIM_INTERVAL,
    ) -> None:
        self.obs = instrumentation
        self.sim_interval = sim_interval
        self.capacity = DEFAULT_CAPACITY
        # Append-and-evict is one C call, so a reader's copy sees the
        # ring before or after a publish, never during one.
        self._ring: Deque[TimeSample] = deque(maxlen=self.capacity)
        self._count = 0
        self._last_sim: Optional[float] = None
        #: the reader's health engine, evaluated on every sample
        self.health = None

    def _sim_now(self) -> Optional[float]:
        # The sim clock reaches obs one way: its owner (Scenario) binds
        # it on the flight recorder, read here on every tick.
        clock = self.obs.events.clock
        return clock.now() if clock is not None else None

    # -- capture (the writer) -------------------------------------------

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
        """Unconditionally capture one sample and publish it."""
        sim = self._sim_now()
        metrics = self.obs.registry.snapshot()
        events = self.obs.events
        total, dropped, _ = events.accounting()
        record = TimeSample(
            index=self._count,
            wall=time.time(),
            sim=sim,
            metrics=metrics,
            events={"total": total, "dropped": dropped},
        )
        if self.health is not None:
            # Over the ring this sample completes, citing the events
            # recorded so far: fixed at publication, like the sample.
            record.findings = self.health.evaluate(
                [*self._ring, record][-self.capacity:], events
            )
        self._count += 1
        self._last_sim = sim
        self._ring.append(record)
        return record

    # -- what readers read ----------------------------------------------

    @property
    def dropped(self) -> int:
        """Samples lost to the ring bound."""
        return self._count - len(self._ring)

    @property
    def total(self) -> int:
        """Samples captured over the sampler's lifetime."""
        return self._count

    def samples(self) -> List[TimeSample]:
        """One copy of the retained samples, oldest first."""
        return list(self._ring)

    @property
    def latest(self) -> Optional[TimeSample]:
        """The newest published sample, or None before the first."""
        return self._ring[-1] if self._ring else None

    # -- export ---------------------------------------------------------

    def summary(self) -> Dict[str, Any]:
        """Small JSON-able state block for introspection/snapshots."""
        return self._summary(self.samples())

    def _summary(self, ring: List[TimeSample]) -> Dict[str, Any]:
        # Read off the copy, not the live counters, so the block
        # describes exactly the samples it is exported with: indexes
        # count every sample taken, and the ring keeps the newest.
        first = ring[0] if ring else None
        last = ring[-1] if ring else None
        return {
            "samples": len(ring),
            "total": last.index + 1 if last is not None else 0,
            "dropped": first.index if first is not None else 0,
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
        ring = self.samples()
        return {
            "schema_version": 1,
            "summary": self._summary(ring),
            "samples": [
                record.to_dict(include_wall=include_wall)
                for record in ring
            ],
        }

    def export_json(self, **kwargs: Any) -> str:
        """Canonical JSON text of :meth:`export` (stable key order)."""
        return json.dumps(self.export(**kwargs), sort_keys=True, indent=2)


# -- windowed queries over one copy of the ring ---------------------------


def window(
    samples: List[TimeSample], seconds: Optional[float]
) -> List[TimeSample]:
    """The *samples* (one ring copy, oldest first) within the trailing
    sim window.

    ``None`` (or samples without sim timestamps) returns them all.
    The sample immediately *before* the window boundary is included so
    deltas across the window edge are well-defined.
    """
    if not samples or seconds is None or samples[-1].sim is None:
        return list(samples)
    start = samples[-1].sim - seconds
    out: List[TimeSample] = []
    for record in samples:
        if record.sim is None or record.sim >= start:
            out.append(record)
        else:
            # keep only the newest pre-window sample as the base
            out = [record]
    return out


def series(
    samples: List[TimeSample],
    name: str,
    labels: Optional[Dict[str, str]] = None,
    kind: str = "counter",
) -> List[Tuple[Optional[float], Optional[float]]]:
    """``(sim, value)`` points for one metric across *samples*."""
    reader: Callable[[TimeSample], Optional[float]]
    if kind == "gauge":
        reader = lambda s: s.gauge_value(name, labels)  # noqa: E731
    else:
        reader = lambda s: family_total(s.metrics, name, labels)  # noqa: E731
    return [(s.sim, reader(s)) for s in samples]


def delta(
    samples: List[TimeSample],
    name: str,
    labels: Optional[Dict[str, str]] = None,
) -> float:
    """Newest-minus-oldest counter total across *samples*."""
    if len(samples) < 2:
        return 0.0
    newest = family_total(samples[-1].metrics, name, labels)
    oldest = family_total(samples[0].metrics, name, labels)
    return max(0.0, newest - oldest)


def rate(
    samples: List[TimeSample],
    name: str,
    labels: Optional[Dict[str, str]] = None,
) -> Optional[float]:
    """Per-sim-second rate of a counter across *samples*."""
    if len(samples) < 2:
        return None
    first, last = samples[0], samples[-1]
    if first.sim is None or last.sim is None:
        return None
    span = last.sim - first.sim
    if span <= 0:
        return None
    return delta(samples, name, labels) / span


def install_sampler(
    instrumentation,
    sim_interval: Optional[float] = DEFAULT_SIM_INTERVAL,
) -> TimeSeriesSampler:
    """Create a sampler and hang it on the instrumentation facade.

    Hook points reach it as ``obs.sampler`` (``None`` on the null
    facade and on live facades without one), so installation is a
    single attribute assignment — no re-wiring of instrumented objects.
    """
    sampler = TimeSeriesSampler(instrumentation, sim_interval=sim_interval)
    instrumentation.sampler = sampler
    return sampler
