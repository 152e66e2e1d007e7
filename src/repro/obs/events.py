"""The measurement flight recorder: a structured event log.

Every operationally interesting decision the system makes — which
technique the engine attempted, which vantage points a spoofed batch
used, whether the atlas answered, how the scheduler admitted or
rejected a job — is recorded as one :class:`Event` in a process-wide
:class:`EventLog`.  Together with the per-measurement *provenance
ledger* built on top (:mod:`repro.obs.provenance`), the log answers
the questions metrics only answer in aggregate: *why* did this
measurement take this path, where did its probe budget go, which
fallback fired.

Design constraints, in order:

* **hot-path cost** — ``emit`` writes fields in place into a
  preallocated ring slot: no per-event allocation beyond the caller's
  keyword dict, so emitting never feeds the cyclic GC (a ring of
  freshly allocated records would be re-scanned on every collection).
  One thread emits and reads (DESIGN.md, "One writer, published
  samples"), so the slot index is a plain count and the common path
  takes no lock; the ring silently overwrites the oldest events when
  full and counts them as dropped.
* **correlation** — every event carries a monotonic sequence number
  plus wall-clock and sim-clock timestamps, and is stamped with the
  current *measurement id* (set by the engine for the duration of one
  ``measure()`` call) so one measurement's events can be pulled out of
  the shared log.
* **serialisability** — events export as JSONL-able dicts under a
  versioned schema (:data:`EVENT_SCHEMA_VERSION`):
  :func:`write_events` writes a run's retained events once, at exit,
  and :func:`read_events` reads such a file back whole.

The log is reached through the instrumentation facade
(``obs.emit(kind, **fields)``): with the null facade the emit is a
no-op ``pass``, so disabled-mode overhead stays ~zero.
"""

from __future__ import annotations

import itertools
import json
import math
import time
from typing import Any, Dict, Iterable, List, Optional, Tuple

#: Version of the exported event record layout.  Bump on incompatible
#: changes to the dict shape; readers reject unknown versions rather
#: than guessing at field meanings.
EVENT_SCHEMA_VERSION = 1

#: Default ring capacity.  At the engine's ~12 events per measurement
#: this retains the last ~350 measurements' worth of decisions —
#: ample for ``explain`` and ``events``, whose subjects are recent.  An
#: export (:func:`write_events`) is these last events of one run,
#: written at exit: what the ring dropped is not in it.
#: Sized deliberately small: at 16k slots the ring never wrapped
#: between reads, so every emit touched a cold cache line and the
#: retained payloads inflated collector scans — a measured ~30% of
#: total event overhead on the serving path.
DEFAULT_CAPACITY = 4_096

_time = time.time

#: Field-name schemas for tuple-payload events (:meth:`EventLog.emit_t`):
#: kind -> field names, matched positionally.  Emitting a *shorter*
#: tuple omits the trailing fields (how optional trailing fields like
#: ``rr.step``'s ``batches`` are expressed); names are applied when an
#: :class:`Event` is materialised from the ring, so the hot path never
#: builds a dict.  Kinds not listed here use the ``**fields`` form.
TUPLE_FIELDS: Dict[str, tuple] = {
    "measure.begin": ("src", "dst", "variant"),
    "measure.end": (
        "status", "hops", "duration", "ping", "probes", "path",
    ),
    "intersect": ("hop", "outcome", "via", "vp", "index"),
    "rr.step": ("hop", "source", "technique", "revealed", "batches"),
    "rr.batch": ("hop", "batch", "mode", "vps", "responses"),
    "ts.step": ("hop", "candidates", "adjacent"),
    "fallback": ("outcome", "link", "hop", "penultimate"),
    "hops.adopted": ("technique", "addrs"),
    "stitch": ("vp", "index", "hops", "stale"),
    "splice": ("hop", "hops", "to_source", "full_path"),
    "splice.negative": ("hop",),
    "cache.lookup": ("kind", "outcome"),
}


def _string(value: Any) -> bool:
    """a string"""
    return isinstance(value, str)


def _integer(value: Any) -> bool:
    """an integer"""
    return type(value) is int


def _strings(value: Any) -> bool:
    """a list of strings"""
    return isinstance(value, list) and all(map(_string, value))


def _string_pairs(value: Any) -> bool:
    """a list of [address, technique] string pairs"""
    return isinstance(value, list) and all(
        _strings(pair) and len(pair) == 2 for pair in value
    )


def _counts(value: Any) -> bool:
    """an object of integer counts"""
    return isinstance(value, dict) and all(map(_integer, value.values()))


#: What a record read back from a file must look like where a reader
#: (:mod:`repro.obs.provenance`) iterates, sums or keys a dict by a
#: field: kind -> field -> test (its docstring says what for).  Absent
#: and ``null`` fields pass; :meth:`Event.from_dict` refuses the rest.
_FIELD_SHAPES: Dict[str, Dict[str, Any]] = {
    "measure.end": {"probes": _counts, "path": _string_pairs},
    "hops.adopted": {"technique": _string, "addrs": _strings},
    "rr.batch": {"vps": _strings},
    "splice": {"hops": _integer},
    "cache.lookup": {"outcome": _string},
    "fallback": {"outcome": _string},
}


_REQUIRED = object()


class Event:
    """One recorded decision, materialised from a ring slot."""

    __slots__ = ("seq", "wall", "sim", "mid", "kind", "fields")

    def __init__(
        self,
        seq: int,
        wall: float,
        sim: Optional[float],
        mid: Optional[str],
        kind: str,
        fields: Any,
    ) -> None:
        self.seq = seq
        self.wall = wall
        self.sim = sim
        self.mid = mid
        self.kind = kind
        if type(fields) is tuple:
            # Tuple payload from emit_t: name the values here, on the
            # (rare, read-side) materialisation, not on the hot path.
            fields = dict(zip(TUPLE_FIELDS[kind], fields))
        self.fields = fields if fields is not None else {}

    def to_dict(self) -> Dict[str, Any]:
        """JSONL record (schema :data:`EVENT_SCHEMA_VERSION`)."""
        out: Dict[str, Any] = {
            "v": EVENT_SCHEMA_VERSION,
            "seq": self.seq,
            "wall": round(self.wall, 6),
            "kind": self.kind,
        }
        if self.sim is not None:
            out["sim"] = round(self.sim, 6)
        if self.mid is not None:
            out["mid"] = self.mid
        if self.fields:
            out["fields"] = _jsonable_fields(self.fields)
        return out

    @classmethod
    def from_dict(cls, doc: Any) -> "Event":
        """The event a :meth:`to_dict` record describes.

        Records come from files, so nothing about *doc* is trusted:
        :class:`ValueError`, naming the field, for anything that is
        not a record of this schema version in the shape the readers
        index (see :data:`_FIELD_SHAPES`).
        """
        if not isinstance(doc, dict):
            raise ValueError(
                f"event record is {type(doc).__name__}, not an object"
            )
        version = doc.get("v")
        if version != EVENT_SCHEMA_VERSION:
            raise ValueError(
                f"unsupported event schema version {version!r} "
                f"(this build reads v{EVENT_SCHEMA_VERSION})"
            )

        def field(name: str, types: tuple, what: str, default=_REQUIRED):
            value = doc.get(name, default)
            if value is _REQUIRED:
                raise ValueError(f"event record has no {name!r}")
            if value is not default and (
                not isinstance(value, types)
                or isinstance(value, bool)
                or (isinstance(value, float) and not math.isfinite(value))
            ):
                raise ValueError(
                    f"event field {name!r} is {value!r}, not {what}"
                )
            return value

        number = (int, float)
        kind = field("kind", (str,), "a string")
        seq = field("seq", (int,), "an integer")
        fields = field("fields", (dict,), "an object", None)
        for name, test in _FIELD_SHAPES.get(kind, {}).items():
            value = (fields or {}).get(name)
            if value is not None and not test(value):
                raise ValueError(
                    f"{kind} field {name!r} is {value!r}, "
                    f"not {test.__doc__}"
                )
        return cls(
            seq=seq,
            wall=field("wall", number, "a finite number", 0.0),
            sim=field("sim", number, "a finite number", None),
            mid=field("mid", (str,), "a string", None),
            kind=kind,
            fields=fields,
        )

    def __repr__(self) -> str:
        return (
            f"Event(seq={self.seq}, kind={self.kind!r}, "
            f"mid={self.mid!r}, fields={self.fields!r})"
        )


def write_events(path: str, events: Iterable[Event]) -> None:
    """Write *events* to *path*, one sorted-key JSON record per line,
    replacing whatever the file held: one file is one run's export."""
    with open(path, "w") as fh:
        for event in events:
            fh.write(json.dumps(event.to_dict(), sort_keys=True))
            fh.write("\n")


def read_events(path: str) -> List[Event]:
    """The events of a :func:`write_events` file, oldest-first.

    Raises :class:`FileNotFoundError` when *path* does not exist, and
    :class:`ValueError`, naming the file, the line and the field, for
    anything in it that is not an event record of this schema version:
    a truncated or retyped line, bytes that are not text.
    """
    events: List[Event] = []
    try:
        with open(path) as fh:
            for number, line in enumerate(fh, 1):
                if not line.strip():
                    continue
                try:
                    events.append(Event.from_dict(json.loads(line)))
                except ValueError as exc:
                    raise ValueError(f"{path}:{number}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not text: {exc}") from exc
    events.sort(key=lambda event: event.seq)
    return events


def _jsonable_fields(fields: Dict[str, Any]) -> Dict[str, Any]:
    return {k: _jsonable(v) for k, v in fields.items()}


def _jsonable(value: Any) -> Any:
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    return str(value)


class EventLog:
    """A bounded, low-overhead structured event log.

    Events live in a preallocated flat ring of ``capacity`` slots (6
    cells each) written in place; the oldest are overwritten (and
    tallied as :attr:`dropped`) once the ring wraps.  One thread emits
    and reads: a reader on another thread reads what the sampler
    published, never this ring, so nothing here takes a lock or guards
    a half-written slot.  The tallies (:meth:`accounting`: total /
    dropped / retained) are a count of emits, so sampling them reads
    no slot at all.
    """

    __slots__ = (
        "capacity", "_clock", "_now", "_slots", "_total", "_mids",
        "_mid",
    )

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        # Duck-typed ``now() -> float`` sim clock, bound late by its
        # owner (Scenario).  The ``clock`` property keeps a prebound
        # ``now`` method so the emit path pays one attribute read, not
        # two plus a lookup.
        self.clock = None
        # One flat list, 6 cells per slot: [seq, wall, sim, mid, kind,
        # fields, seq, wall, ...]; seq -1 marks a slot never written.
        # Flat rather than list-of-lists so an emit writes 6 adjacent
        # cells of one backing array — typically a single cache line,
        # instead of a pointer chase through a per-slot object whose
        # lines the measurement loop just evicted.  Allocated once and
        # mutated for the life of the log.
        self._slots: List[Any] = (
            [-1, 0.0, None, None, "", None] * capacity
        )
        #: events emitted so far: the next event's sequence number
        self._total = 0
        self._mids = itertools.count(1)
        #: the current measurement id every emit is stamped with
        self._mid: Optional[str] = None

    @property
    def clock(self):
        return self._clock

    @clock.setter
    def clock(self, clock) -> None:
        self._clock = clock
        self._now = clock.now if clock is not None else None

    # -- correlation ----------------------------------------------------

    def new_measurement_id(self) -> str:
        """A fresh process-unique measurement id (``m-000001``, ...)."""
        return f"m-{next(self._mids):06d}"

    def set_current(self, mid: Optional[str]) -> Optional[str]:
        """Install *mid* as the current measurement id.

        Returns the previous id so callers can restore it (the engine
        brackets each ``measure()`` with set/restore), keeping nested
        or re-entrant uses safe.
        """
        previous = self._mid
        self._mid = mid
        return previous

    # -- the hot path ---------------------------------------------------

    def emit(
        self,
        kind: str,
        /,
        _mid: Optional[str] = None,
        **fields: Any,
    ) -> None:
        """Record one event; ``**fields`` become its payload.

        The event kind is positional-only so a payload field may also
        be named ``kind`` (the cache and prober use it as a label).
        ``_mid`` overrides the current measurement id (used by the
        scheduler, whose events straddle measurements).
        """
        now = self._now
        seq = self._total
        self._total = seq + 1
        slots = self._slots
        base = seq % self.capacity * 6
        slots[base] = seq
        slots[base + 1] = _time()
        slots[base + 2] = now() if now is not None else None
        slots[base + 3] = _mid if _mid is not None else self._mid
        slots[base + 4] = kind
        slots[base + 5] = fields or None

    def emit_t(self, kind: str, values: tuple) -> None:
        """Record one event whose payload is a plain tuple.

        The fastest emit form, for per-hop call sites: no keyword
        dict is built (a measured ~30% of total emit cost) — *values*
        are matched positionally against :data:`TUPLE_FIELDS` when
        the event is read back.  A shorter tuple omits the trailing
        fields.  *kind* must be registered in :data:`TUPLE_FIELDS`;
        everything else (and any caller needing ``_mid``) uses
        :meth:`emit`.
        """
        now = self._now
        seq = self._total
        self._total = seq + 1
        slots = self._slots
        base = seq % self.capacity * 6
        slots[base] = seq
        slots[base + 1] = _time()
        slots[base + 2] = now() if now is not None else None
        slots[base + 3] = self._mid
        slots[base + 4] = kind
        slots[base + 5] = values

    # -- accounting -----------------------------------------------------

    def accounting(self) -> Tuple[int, int, int]:
        """``(total, dropped, retained)``: *total* is events emitted
        over the log's lifetime (including overwritten ones), *dropped*
        those lost to ring wraparound, *retained* those still in the
        ring, so ``total == retained + dropped``.  Computed from the
        emit count alone, so telemetry can read it on every sample.
        """
        total = self._total
        retained = min(total, self.capacity)
        return total, total - retained, retained

    @property
    def total(self) -> int:
        """Events emitted over the log's lifetime (incl. overwritten)."""
        return self.accounting()[0]

    @property
    def dropped(self) -> int:
        """Events lost to ring wraparound."""
        return self.accounting()[1]

    def __len__(self) -> int:
        return self.accounting()[2]

    # -- reads ----------------------------------------------------------

    def _snapshot(self) -> List[Any]:
        # A copy of each written slot (seq -1 marks one never
        # written), oldest first.
        slots = self._slots
        records = [
            slots[base:base + 6]
            for base in range(0, len(slots), 6)
            if slots[base] >= 0
        ]
        records.sort(key=lambda record: record[0])
        return records

    def events(self) -> List[Event]:
        """Retained events, oldest first."""
        return [Event(*record) for record in self._snapshot()]
