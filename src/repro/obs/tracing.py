"""Span-based tracing for individual measurements.

Every instrumented operation — atlas intersection, an RR round, a
spoofed batch, a timestamp adjacency test, the symmetry fallback —
opens a :class:`Span`; nested operations become child spans, so one
:meth:`RevtrEngine.measure` call yields one trace *tree* whose root is
the ``revtr.measure`` span.

Each span records two durations:

* **wall-clock** (``time.perf_counter``) — what the reproduction
  actually costs on this machine;
* **sim-clock** (the :class:`~repro.sim.clock.VirtualClock`) — what the
  measurement would cost on the real Internet (RTTs, the 10 s spoofed
  batch timeouts of §5.2.4).

Both matter: wall time finds hot Python, sim time finds hot protocol
(see DESIGN.md).  Completed root spans are kept in a bounded ring and
export as plain JSON-able dicts for post-hoc analysis.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Any, Dict, Iterator, List, Optional, Sequence

_perf_counter = time.perf_counter


class Span:
    """One timed operation in a trace tree.

    Doubles as its own context manager (``with tracer.span(...)``):
    :meth:`Tracer.span` pushes it onto the owning tracer's stack at
    creation, exiting pops and attaches it to its parent (or the
    completed-trace ring).
    """

    # Built field by field in :meth:`Tracer.span`, its only
    # constructor.  attrs and children are lazily allocated (None until
    # first use): most spans are leaves and every avoided container
    # keeps the cyclic GC quieter on the measurement hot path.
    __slots__ = (
        "name",
        "_attrs",
        "_children",
        "wall_start",
        "wall_end",
        "sim_start",
        "sim_end",
        "error",
        "_tracer",
        "_stack",
    )

    def __enter__(self) -> "Span":
        # Already started: Tracer.span() pushes at creation time, so
        # entering the ``with`` block is free.
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        # Close inline (no helper-method frame: this runs ~10x per
        # measurement and frames are the dominant span cost).
        if exc is not None:
            self.error = f"{exc_type.__name__}: {exc}"
        tracer = self._tracer
        self.wall_end = _perf_counter()
        clock = tracer.clock
        if clock is not None:
            self.sim_end = clock.now()
        stack = self._stack
        if stack:
            if stack[-1] is self:
                stack.pop()
            else:
                # Tolerate a corrupted stack rather than masking the
                # caller's exception: pop up to and including this span.
                while stack:
                    if stack.pop() is self:
                        break
        if stack:
            parent = stack[-1]
            if parent._children is None:
                parent._children = [self]
            else:
                parent._children.append(self)
        else:
            # One thread closes spans; a telemetry reader may copy
            # the ring meanwhile (``list(traces)`` under the lock).
            # Both are single C calls, so the copy sees the ring
            # before or after this append, never during — the lock is
            # for the compound operations (export/clear) only.
            # tests/test_reader_thread.py exports traces from a second
            # thread while a workload closes them.
            traces = tracer.traces
            if len(traces) == traces.maxlen:
                # The ring is full: this append evicts the oldest
                # completed trace; tallied so the loss is countable.
                tracer.dropped += 1
            traces.append(self)
        # Drop the tracer and stack backrefs: they form reference
        # cycles through the completed-trace ring (span -> tracer ->
        # traces -> span), and closed spans can be long-lived there —
        # without this every retained trace tree is cyclic-GC work.
        self._tracer = None
        self._stack = None
        return False

    @property
    def attrs(self) -> Dict[str, Any]:
        return self._attrs if self._attrs is not None else {}

    @property
    def children(self) -> Sequence["Span"]:
        return self._children if self._children is not None else ()

    def annotate(self, **attrs: Any) -> None:
        """Attach attributes to the span (last write wins)."""
        if self._attrs is None:
            self._attrs = attrs
        else:
            self._attrs.update(attrs)

    @property
    def wall_duration(self) -> float:
        if self.wall_end is None:
            return 0.0
        return self.wall_end - self.wall_start

    @property
    def sim_duration(self) -> Optional[float]:
        if self.sim_start is None or self.sim_end is None:
            return None
        return self.sim_end - self.sim_start

    def walk(self) -> Iterator["Span"]:
        """Depth-first iteration over this span and its descendants."""
        yield self
        for child in self.children:
            yield from child.walk()

    def find(self, name: str) -> List["Span"]:
        """All spans named *name* in this subtree."""
        return [span for span in self.walk() if span.name == name]

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "name": self.name,
            "wall_duration": round(self.wall_duration, 9),
        }
        if self.sim_duration is not None:
            out["sim_duration"] = self.sim_duration
        if self.attrs:
            out["attrs"] = {k: _jsonable(v) for k, v in self.attrs.items()}
        if self.error is not None:
            out["error"] = self.error
        if self.children:
            out["children"] = [c.to_dict() for c in self.children]
        return out

    def __repr__(self) -> str:
        return (
            f"Span({self.name!r}, children={len(self.children)}, "
            f"attrs={self.attrs!r})"
        )


def _jsonable(value: Any) -> Any:
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    return str(value)


#: Completed traces the ring keeps; older ones are dropped and tallied.
MAX_TRACES = 256


class Tracer:
    """Builds per-measurement span trees.

    The active-span stack is thread-local, so concurrent measurements
    on different threads build independent trees; the completed-trace
    ring is shared and lock-protected.
    """

    def __init__(self, clock=None) -> None:
        #: object with a ``now() -> float`` method (duck-typed so the
        #: tracer does not import the simulator); may be set late.
        self.clock = clock
        self._lock = threading.Lock()
        self._local = threading.local()
        self.traces: deque = deque(maxlen=MAX_TRACES)
        #: completed traces evicted from the full ring (lifetime tally)
        self.dropped = 0

    # -- stack ----------------------------------------------------------

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    # -- public API -----------------------------------------------------

    def span(self, name: str, **attrs: Any) -> Span:
        """Open a span; use as ``with tracer.span("rr.step") as s:``.

        The span is pushed onto the active stack *here* (not in
        ``__enter__``), so a span created outside a ``with`` block must
        still be closed via ``__exit__``.
        """
        # Built inline rather than in a Span.__init__ — this runs ~10x
        # per measurement and the constructor frame is measurable
        # there.  The kwargs dict is fresh per call, so it is adopted
        # rather than copied.
        span = Span.__new__(Span)
        span.name = name
        span._attrs = attrs or None
        span._children = None
        span.wall_end = None
        span.sim_end = None
        span.error = None
        span._tracer = self
        clock = self.clock
        span.sim_start = clock.now() if clock is not None else None
        local = self._local
        try:
            stack = local.stack
        except AttributeError:
            stack = local.stack = []
        # Captured so __exit__ skips the threading.local lookup (spans
        # never migrate threads).
        span._stack = stack
        stack.append(span)
        span.wall_start = _perf_counter()
        return span

    @property
    def active_span(self) -> Optional[Span]:
        stack = self._stack()
        return stack[-1] if stack else None

    @property
    def last_trace(self) -> Optional[Span]:
        with self._lock:
            return self.traces[-1] if self.traces else None

    def export_json(self) -> List[Dict[str, Any]]:
        """All completed traces as JSON-able dicts, oldest first."""
        with self._lock:
            roots = list(self.traces)
        return [root.to_dict() for root in roots]

    def clear(self) -> None:
        with self._lock:
            self.traces.clear()
