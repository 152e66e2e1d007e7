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
  The slot index comes from an :class:`itertools.count` — ``next()``
  is one C call, so concurrent emitters never claim the same one
  (``tests/test_events.py``, ``test_concurrent_emit``) — and each
  event writes only its own slot, so the common path takes no lock;
  the ring silently overwrites the oldest events when full and counts
  them as dropped.
* **correlation** — every event carries a monotonic sequence number
  plus wall-clock and sim-clock timestamps, and is stamped with the
  current *measurement id* (thread-local, set by the engine for the
  duration of one ``measure()`` call) so one measurement's events can
  be pulled out of the shared log.
* **serialisability** — events export as JSONL-able dicts under a
  versioned schema (:data:`EVENT_SCHEMA_VERSION`); see
  :mod:`repro.obs.eventio` for the file format and gzip rotation.

The log is reached through the instrumentation facade
(``obs.emit(kind, **fields)``): with the null facade the emit is a
no-op ``pass``, so disabled-mode overhead stays ~zero.
"""

from __future__ import annotations

import itertools
import threading
import time
from typing import Any, Dict, List, Optional, Tuple

#: Version of the exported event record layout.  Bump on incompatible
#: changes to the dict shape; readers reject unknown versions rather
#: than guessing at field meanings.
EVENT_SCHEMA_VERSION = 1

#: Default ring capacity.  At the engine's ~12 events per measurement
#: this retains the last ~350 measurements' worth of decisions —
#: ample for ``explain``/``tail``, whose subjects are recent; export
#: to JSONL (:mod:`repro.obs.eventio`) covers full-history needs.
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
                not isinstance(value, types) or isinstance(value, bool)
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
            wall=field("wall", number, "a number", 0.0),
            sim=field("sim", number, "a number", None),
            mid=field("mid", (str,), "a string", None),
            kind=kind,
            fields=fields,
        )

    def __repr__(self) -> str:
        return (
            f"Event(seq={self.seq}, kind={self.kind!r}, "
            f"mid={self.mid!r}, fields={self.fields!r})"
        )


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


class _LocalMid(threading.local):
    """Thread-local current measurement id with a class-level default,
    so the hot path reads ``self._local.mid`` without ``getattr``."""

    mid: Optional[str] = None


class EventLog:
    """A thread-safe, bounded, low-overhead structured event log.

    Events live in a preallocated flat ring of ``capacity`` slots (6
    cells each) written in place (seqlock-style: the sequence number
    is published last, so readers can discard half-written slots);
    the oldest are overwritten (and tallied as :attr:`dropped`) once
    the ring wraps.  Reads (:meth:`events`, :meth:`tail`) snapshot
    the ring under a lock; writes never take it.  The tallies
    (:meth:`accounting`: total / dropped / retained) read only the
    sequence cells, so sampling them never copies the ring.  The one
    write/write hazard is a writer lapped by a full ring revolution
    mid-emit — ``capacity`` concurrent emits inside one emit's
    microsecond window — which the drop accounting already treats as
    data loss.
    """

    __slots__ = (
        "capacity", "_clock", "_now", "_slots", "_seq", "_mids",
        "_local", "_lock", "_cleared", "_floor",
    )

    def __init__(
        self,
        capacity: int = DEFAULT_CAPACITY,
        clock=None,
    ) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        # Duck-typed ``now() -> float`` sim clock; may be bound late
        # (the Scenario wires it the same way as the tracer's).  The
        # ``clock`` property keeps a prebound ``now`` method so the
        # emit path pays one attribute read, not two plus a lookup.
        self.clock = clock
        # One flat list, 6 cells per slot: [seq, wall, sim, mid, kind,
        # fields, seq, wall, ...]; seq -1 marks an empty (or
        # in-flight) slot.  Flat rather than list-of-lists so an emit
        # writes 6 adjacent cells of one backing array — typically a
        # single cache line, instead of a pointer chase through a
        # per-slot object whose lines the measurement loop just
        # evicted.  Allocated once and mutated for the life of the
        # log.
        self._slots: List[Any] = (
            [-1, 0.0, None, None, "", None] * capacity
        )
        # next() is one C call: each emit claims a distinct sequence
        # number / slot without locking (test_concurrent_emit).
        self._seq = itertools.count()
        self._mids = itertools.count(1)
        self._local = _LocalMid()
        self._lock = threading.Lock()
        #: events discarded by explicit :meth:`clear` calls (they are
        #: not "dropped" — the operator asked for them to go)
        self._cleared = 0
        # Sequence floor after a clear, so lifetime totals stay exact
        # even when the ring is empty.
        self._floor = 0

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
        """Install *mid* as this thread's current measurement id.

        Returns the previous id so callers can restore it (the engine
        brackets each ``measure()`` with set/restore), keeping nested
        or re-entrant uses safe.
        """
        local = self._local
        previous = local.mid
        local.mid = mid
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
        ``_mid`` overrides the thread-local current measurement id
        (used by the scheduler, whose events straddle measurements).
        """
        now = self._now
        seq = next(self._seq)
        slots = self._slots
        base = seq % self.capacity * 6
        # Invalidate, fill, then publish the sequence number last
        # (seqlock-style; cheaper than one slice assignment, which
        # would allocate a 6-tuple per emit): readers copy each slot
        # with one slice — a single C call, which no item store here
        # can interleave with — and drop copies still carrying the -1
        # sentinel, so a half-written slot is never surfaced as an
        # event.  tests/test_reader_thread.py reads the ring from a
        # second thread for the length of a workload.
        slots[base] = -1
        slots[base + 1] = _time()
        slots[base + 2] = now() if now is not None else None
        slots[base + 3] = _mid if _mid is not None else self._local.mid
        slots[base + 4] = kind
        slots[base + 5] = fields or None
        slots[base] = seq

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
        seq = next(self._seq)
        slots = self._slots
        base = seq % self.capacity * 6
        slots[base] = -1
        slots[base + 1] = _time()
        slots[base + 2] = now() if now is not None else None
        slots[base + 3] = self._local.mid
        slots[base + 4] = kind
        slots[base + 5] = values
        slots[base] = seq

    # -- accounting -----------------------------------------------------

    def accounting(self) -> Tuple[int, int, int]:
        """``(total, dropped, retained)`` from one read of the ring.

        *total* is events emitted over the log's lifetime (including
        overwritten ones), *dropped* those lost to ring wraparound
        (explicit clears excluded), *retained* those still in the
        ring.  All three come from one strided slice of the sequence
        cells taken under the lock — no slot copies, no Python-level
        loop — so telemetry can read them on every sample, and they
        always satisfy ``total == retained + dropped + cleared``.
        *total* is derived from the highest retained sequence number
        rather than by peeking at the counter, so reading it never
        races with the lock-free emit path.
        """
        with self._lock:
            seqs = self._slots[0::6]
            floor = self._floor
            cleared = self._cleared
        # Sequence cells hold -1 (empty or mid-write) or a published
        # sequence number, so everything that is not -1 is retained.
        retained = self.capacity - seqs.count(-1)
        total = max(seqs) + 1 if retained else floor
        return total, max(0, total - cleared - retained), retained

    @property
    def total(self) -> int:
        """Events emitted over the log's lifetime (incl. overwritten)."""
        return self.accounting()[0]

    @property
    def dropped(self) -> int:
        """Events lost to ring wraparound (explicit clears excluded)."""
        return self.accounting()[1]

    def __len__(self) -> int:
        return self.accounting()[2]

    # -- reads ----------------------------------------------------------

    def _snapshot(self) -> List[Any]:
        # Copy each live slot (one slice, one C call: see emit) so
        # records cannot be mutated by a concurrent emit after we
        # return; re-check the sentinel on the *copy* to discard slots
        # caught mid-write.
        with self._lock:
            slots = self._slots
            copies = [
                slots[base:base + 6]
                for base in range(0, len(slots), 6)
                if slots[base] >= 0
            ]
        records = [copy for copy in copies if copy[0] >= 0]
        records.sort(key=lambda record: record[0])
        return records

    def events(
        self,
        mid: Optional[str] = None,
        kind: Optional[str] = None,
        since_seq: int = -1,
    ) -> List[Event]:
        """Retained events oldest-first, optionally filtered.

        *mid* selects one measurement's events, *kind* one event kind,
        and *since_seq* skips events at or below a sequence number
        (for incremental drains).
        """
        out: List[Event] = []
        for record in self._snapshot():
            if record[0] <= since_seq:
                continue
            if mid is not None and record[3] != mid:
                continue
            if kind is not None and record[4] != kind:
                continue
            out.append(Event(*record))
        return out

    def tail(self, n: int = 20) -> List[Event]:
        """The most recent *n* events, oldest-first."""
        records = self._snapshot()
        return [Event(*record) for record in records[-n:]]

    def by_kind(self) -> Dict[str, int]:
        """Retained event counts per kind (for snapshots/stats)."""
        counts: Dict[str, int] = {}
        for record in self._snapshot():
            counts[record[4]] = counts.get(record[4], 0) + 1
        return counts

    def summary(self) -> Dict[str, Any]:
        """JSON-able operator view for ``introspect``/service snapshots."""
        total, dropped, retained = self.accounting()
        return {
            "schema_version": EVENT_SCHEMA_VERSION,
            "capacity": self.capacity,
            "recorded": retained,
            "total": total,
            "dropped": dropped,
            "by_kind": dict(sorted(self.by_kind().items())),
        }

    def clear(self) -> None:
        with self._lock:
            seqs = self._slots[0::6]
            retained = self.capacity - seqs.count(-1)
            if retained:
                self._floor = max(seqs) + 1
            self._cleared += retained
            self._slots = [-1, 0.0, None, None, "", None] * self.capacity
