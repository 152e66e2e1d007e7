"""Per-layer tracer: class-level wrappers around each layer's public
functions, installed from outside and fully restored afterwards.

Every wrapped call is a span on one span stack.  A span's *self time*
is its duration minus the part its child spans cover, so the self
times of all layers plus the harness loop's own (the *residual*) add up
to the traced wall time by construction, and a nested call into the
same layer is never counted twice.  Totals are kept per function; the
full span tree (name, start, end, parent, request id) is kept only for
a deterministic 1-in-``SAMPLE_EVERY`` sample of requests, because
holding a million spans would itself be the workload.

The wrapper's own cost lands in the *caller's* self time, so a layer
that makes many traced calls reads a little high; the harness reports
the total as ``ledger.trace_overhead_frac``.
"""

from __future__ import annotations

import sys
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.alias.resolver import AliasResolver
from repro.asmap.ip2as import IPToASMapper
from repro.asmap.relationships import ASRelationships
from repro.core.atlas import TracerouteAtlas
from repro.core.cache import MeasurementCache
from repro.core.ingress import IngressProbeSession, IngressSelector
from repro.core.revtr import RevtrEngine
from repro.core.rr_atlas import RRAtlas
from repro.core.segcache import ReverseSegmentCache
from repro.obs.events import EventLog
from repro.obs.instrument import Instrumentation
from repro.obs.timeseries import TimeSeriesSampler
from repro.obs.tracing import Span, Tracer as ObsTracer
from repro.probing import traceroute as traceroute_module
from repro.probing.prober import Prober
from repro.service.scheduler import RequestScheduler
from repro.service.store import MeasurementStore
from repro.service.users import User
from repro.sim.faults import FaultInjector
from repro.sim.network import Internet
from repro.topology.policy import RoutingPolicy

SAMPLE_EVERY = 100

#: layer -> [(class, (method, ...))].  Layers are this repo's packages.
TARGETS: Dict[str, List[Tuple[type, Tuple[str, ...]]]] = {
    "topology": [
        (
            RoutingPolicy,
            ("routes", "route_of", "next_hop_as", "as_path",
             "catchment", "invalidate"),
        ),
    ],
    "sim": [
        (
            Internet,
            ("send_probe", "send_probe_batch", "invalidate_routing"),
        ),
    ],
    "sim.faults": [
        (
            FaultInjector,
            ("pre_send", "link_drops", "responder_suppressed",
             "te_suppressed"),
        ),
    ],
    "probing": [
        (
            Prober,
            ("ping", "rr_ping", "rr_ping_batch", "spoofed_rr_batch",
             "ts_ping", "snmpv3_probe"),
        ),
    ],
    "core.revtr": [(RevtrEngine, ("measure", "measure_many"))],
    "core.cache": [
        (
            MeasurementCache,
            ("get", "put", "contains_fresh", "age", "purge_expired",
             "maybe_purge"),
        ),
    ],
    "core.segcache": [
        (
            ReverseSegmentCache,
            ("lookup", "chain", "store", "store_negative",
             "note_splice", "purge_expired"),
        ),
    ],
    "core.atlas": [
        (TracerouteAtlas, ("lookup", "suffix", "refresh")),
        (RRAtlas, ("lookup",)),
    ],
    "core.ingress": [
        (IngressSelector, ("session", "batches")),
        (IngressProbeSession, ("next_batch", "observe")),
    ],
    "alias": [
        (
            AliasResolver,
            ("same_router", "aligned", "can_resolve", "group_of",
             "matches_any"),
        ),
    ],
    "asmap": [
        (
            IPToASMapper,
            ("asn", "as_path", "collapsed_as_path", "same_as"),
        ),
        (
            ASRelationships,
            ("relationship", "providers", "cone_size", "is_tier1",
             "is_small", "is_suspicious_link"),
        ),
    ],
    "service": [
        (RequestScheduler, ("submit", "step")),
        (MeasurementStore, ("append",)),
        (User, ("charge",)),
    ],
    "obs": [
        (Instrumentation, ("inc", "observe", "set_gauge")),
        (ObsTracer, ("span",)),
        (Span, ("__exit__", "annotate")),
        (
            EventLog,
            ("emit", "emit_t", "new_measurement_id", "set_current"),
        ),
        (TimeSeriesSampler, ("maybe_sample",)),
    ],
}

LAYERS = tuple(TARGETS)

#: Functions whose non-None results are counted as useful outcomes.
_COUNT_HITS = {"TracerouteAtlas.lookup", "RRAtlas.lookup"}
#: Functions whose receivers are collected (to read public tallies off
#: the lazily created per-source engines afterwards).
_COLLECT_SELF = {"RevtrEngine.measure"}


class LayerTracer:
    """Install with :meth:`install`, drive the workload, then
    :meth:`uninstall`; read :attr:`calls` / :attr:`self_s` by function
    name (``"Internet.send_probe"``) or :meth:`layer_self_s`."""

    def __init__(self) -> None:
        self.calls: Dict[str, int] = {}
        self.self_s: Dict[str, float] = {}
        self.hits: Dict[str, int] = {}
        self.layer_of: Dict[str, str] = {}
        self.receivers: Dict[str, list] = {}
        #: summed duration of spans with no parent: traced wall minus
        #: this is the harness loop's own self time (the residual)
        self.top_level_s = 0.0
        #: sampled span trees: request id -> [(name, start, end,
        #: parent index or -1)]
        self.trees: Dict[int, List[tuple]] = {}
        self._stack: List[List[float]] = []
        self._names: List[str] = []
        self._tot_calls: List[int] = []
        self._tot_self: List[float] = []
        self._tot_hits: List[int] = []
        #: running self time per layer (index into LAYERS); the harness
        #: snapshots it after every request for the per-request rows
        self._layer_tot: List[float] = [0.0] * len(LAYERS)
        self.rows: List[List[float]] = []
        self._records: Optional[List[tuple]] = None
        self._open: List[int] = []
        self._restore: List[Tuple[Any, str, Any]] = []
        self._obs: Optional[Instrumentation] = None

    # -- span sampling ---------------------------------------------------

    def begin_request(self, index: int) -> None:
        """Called by the harness before each ``step()``."""
        self._records = [] if index % SAMPLE_EVERY == 0 else None
        self._open = []

    def end_request(self, request_id: int) -> None:
        """Called after each ``step()`` with the ``Job.id`` it ran:
        files the sampled span tree under that id and appends one
        cumulative row of self time per layer (differenced at
        read-out)."""
        if self._records is not None:
            self.trees[request_id] = self._records
            self._records = None
        self.rows.append(list(self._layer_tot))

    # -- wrapping --------------------------------------------------------

    def _wrap(self, name: str, layer: str, orig: Callable) -> Callable:
        slot = len(self._names)
        self._names.append(name)
        self._tot_calls.append(0)
        self._tot_self.append(0.0)
        self._tot_hits.append(0)
        self.layer_of[name] = layer
        stack = self._stack
        calls, selfs, hits = (
            self._tot_calls, self._tot_self, self._tot_hits
        )
        layer_tot = self._layer_tot
        layer_slot = LAYERS.index(layer)
        count_hits = name in _COUNT_HITS
        receivers = (
            self.receivers.setdefault(name, [])
            if name in _COLLECT_SELF
            else None
        )
        tracer = self

        def traced(*args, **kwargs):
            records = tracer._records
            if records is not None:
                opened = tracer._open
                index = len(records)
                records.append(None)
                parent = opened[-1] if opened else -1
                opened.append(index)
            frame = [0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = orig(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                calls[slot] += 1
                own = duration - frame[0]
                selfs[slot] += own
                layer_tot[layer_slot] += own
                if stack:
                    stack[-1][0] += duration
                else:
                    tracer.top_level_s += duration
                if records is not None:
                    opened.pop()
                    records[index] = (name, start, end, parent)
            if count_hits and result is not None:
                hits[slot] += 1
            if receivers is not None and args[0] not in receivers:
                receivers.append(args[0])
            return result

        return traced

    def install(self, obs: Optional[Instrumentation] = None) -> None:
        """Patch every target.  *obs* is the live Instrumentation, if
        the workload has one: its constructor pre-binds ``span`` /
        ``emit`` / ``emit_t`` onto the instance, so those are re-bound
        to the wrapped methods (and back on uninstall)."""
        for layer, targets in TARGETS.items():
            for cls, methods in targets:
                for method in methods:
                    orig = cls.__dict__[method]
                    name = f"{cls.__name__}.{method}"
                    setattr(cls, method, self._wrap(name, layer, orig))
                    self._restore.append((cls, method, orig))
        # paris_traceroute is a function imported by name: patch every
        # module global that refers to it.
        orig = traceroute_module.paris_traceroute
        wrapped = self._wrap("paris_traceroute", "probing", orig)
        for module in list(sys.modules.values()):
            if getattr(module, "paris_traceroute", None) is orig:
                setattr(module, "paris_traceroute", wrapped)
                self._restore.append((module, "paris_traceroute", orig))
        self._obs = obs
        self._rebind_obs()

    def _rebind_obs(self) -> None:
        obs = self._obs
        if obs is None:
            return
        obs.span = obs.tracer.span
        if obs.events is not None:
            obs.emit = obs.events.emit
            obs.emit_t = obs.events.emit_t

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()
        self._rebind_obs()
        self._obs = None
        for slot, name in enumerate(self._names):
            self.calls[name] = self._tot_calls[slot]
            self.self_s[name] = self._tot_self[slot]
            self.hits[name] = self._tot_hits[slot]

    # -- read-out --------------------------------------------------------

    def layer_self_s(self) -> Dict[str, float]:
        out = {layer: 0.0 for layer in LAYERS}
        for name, seconds in self.self_s.items():
            out[self.layer_of[name]] += seconds
        return out

    @staticmethod
    def _total(table: Dict[str, Any], names: Tuple[str, ...]):
        """Sum *table* over *names*; a name ending in ``.`` selects
        every wrapped method of that class."""
        return sum(
            value
            for key, value in table.items()
            if any(
                key.startswith(name) if name.endswith(".") else key == name
                for name in names
            )
        )

    def n_calls(self, *names: str) -> int:
        return self._total(self.calls, names)

    def fn_self_s(self, *names: str) -> float:
        return self._total(self.self_s, names)

    def layer_calls(self, layer: str) -> int:
        return sum(
            n for name, n in self.calls.items()
            if self.layer_of[name] == layer
        )

    def dump(self) -> Dict[str, Any]:
        """JSON-able trace: per-function totals, per-request self time
        by layer, and the sampled span trees (times relative to each
        tree's first span; self times raw, not drift-corrected)."""
        trees = {}
        for request_id, records in self.trees.items():
            if not records:
                continue
            base = records[0][1]
            trees[str(request_id)] = [
                {
                    "name": name,
                    "layer": self.layer_of[name],
                    "start_us": round((start - base) * 1e6, 1),
                    "end_us": round((end - base) * 1e6, 1),
                    "parent": parent,
                }
                for name, start, end, parent in records
            ]
        # Per-request self time by layer, from the cumulative rows.
        per_request = {}
        previous = [0.0] * len(LAYERS)
        columns: List[List[float]] = [[] for _ in LAYERS]
        for row in self.rows:
            for column, now, before in zip(columns, row, previous):
                column.append(now - before)
            previous = row
        for layer, column in zip(LAYERS, columns):
            if column and any(column):
                column.sort()
                per_request[layer] = {
                    "p50_us": round(column[len(column) // 2] * 1e6, 2),
                    "p99_us": round(
                        column[int(0.99 * len(column))] * 1e6, 2
                    ),
                }
        return {
            "functions": {
                name: {
                    "layer": self.layer_of[name],
                    "calls": self.calls[name],
                    "self_s": self.self_s[name],
                }
                for name in sorted(self.calls)
            },
            "per_request_self_time": per_request,
            "sample_every": SAMPLE_EVERY,
            "sampled_requests": trees,
        }
