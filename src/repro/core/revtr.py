"""The Reverse Traceroute engine.

Implements the Fig. 2 control flow. One engine instance measures
reverse paths toward one *source*; an
:class:`~repro.core.result.ReverseTracerouteResult` is built
hop-by-hop from the destination back to the source:

1. **Intersection** — is the current hop on a known route to the
   source? revtr 2.0 consults the traceroute atlas directly and through
   the RR atlas's precomputed aliases (Q2); revtr 1.0 consults offline
   alias datasets (ITDK-like) and the /30 heuristic.
2. **Record route** — direct RR ping from the source, then batches of
   spoofed RR pings from vantage points chosen by the pluggable
   selector (Q3).
3. **Timestamp** — revtr 1.0 only (Q4): tsprespec tests of traceroute
   adjacencies.
4. **Assume symmetry** — forward traceroute to the current hop; adopt
   the penultimate hop per the symmetry policy (Q5), or abort.

The same engine class, parameterised by :class:`EngineConfig`, realises
revtr 2.0, revtr 1.0, and every intermediate variant of Table 4 /
Fig. 5c ("revtr 2.0 = revtr 1.0 + ingress + cache − TS + RR atlas"):
:meth:`RevtrEngine._measure` is the loop, each numbered technique is
one ``_step_*`` method, and a variant is the list of steps its config
selects (DESIGN.md, "The measurement loop").
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import is_
from typing import Dict, List, NamedTuple, Optional, Sequence, Set, Tuple

from repro.alias.resolver import AliasResolver
from repro.asmap.ip2as import IPToASMapper
from repro.asmap.relationships import ASRelationships
from repro.core.adjacency import AdjacencyDatabase
from repro.core.atlas import Intersection, TracerouteAtlas
from repro.core.cache import MeasurementCache
from repro.core.flags import ASPathEntry, flag_suspicious_links
from repro.core.result import (
    HopTechnique,
    ReverseHop,
    ReverseTracerouteResult,
    RevtrStatus,
)
from repro.core.rr_atlas import RRAtlas
from repro.core.segcache import ReverseSegmentCache
from repro.core.symmetry import LinkType, SymmetryPolicy, SymmetryStepper
from repro.net.addr import Address, is_private, slash30_peer
from repro.obs.instrument import NULL
from repro.probing.prober import Prober


#: Spoofed-RR batches tried per hop before the RR step gives up.
_MAX_BATCHES_PER_HOP = 60
#: Adjacency candidates one timestamp step tests.
_MAX_ADJACENCIES = 8
#: Hops a reverse path may hold before the loop gives up (INCOMPLETE).
_MAX_PATH_HOPS = 48
#: Of a measurement's ``retry_budget``, how many extra attempts any one
#: liveness check / direct-RR step may consume.
_PING_RETRIES = 2
_RR_RETRIES = 1


@dataclass
class EngineConfig:
    """Feature flags selecting a system variant.

    The defaults are revtr 2.0; revtr 1.0 is the literal in
    :meth:`repro.experiments.common.Scenario.engine_config`.
    Fixed at construction: the engine chooses its openers and steps
    once from ``ping_check``, ``use_timestamp`` and whether it was
    given a segment cache, so build a new engine rather than editing a
    live one's config.
    What no caller varies is not a field but a module constant above:
    ``_MAX_BATCHES_PER_HOP``, ``_MAX_ADJACENCIES``, ``_MAX_PATH_HOPS``,
    ``_PING_RETRIES`` / ``_RR_RETRIES``; batch size is
    :data:`repro.core.ingress.DEFAULT_BATCH_SIZE`, and an empty RR
    outcome lives in the measurement cache as long as any other entry.
    Reuse is wiring, not a field: an engine splices when it is given a
    :class:`~repro.core.segcache.ReverseSegmentCache` (the service
    builds one engine per source, with one; the paper's engines
    from ``Scenario.engine`` get none and measure from scratch); the
    measurement cache is the engine's own, on when ``use_cache`` is.
    """

    use_rr_atlas: bool = True
    use_alias_intersection: bool = False
    use_timestamp: bool = False
    use_cache: bool = True
    symmetry: SymmetryPolicy = SymmetryPolicy.INTRADOMAIN_ONLY
    ping_check: bool = True
    #: Appendix A request option: refuse intersections with atlas
    #: traceroutes older than this (seconds); the engine re-measures
    #: the traceroute online instead of using the stale copy. None
    #: accepts any age (the atlas refresh policy handles staleness).
    max_intersection_age: Optional[float] = None
    #: Graceful-degradation knobs, off by default so fault-free runs
    #: stay byte-identical.  ``retry_budget`` is the total extra
    #: technique attempts one measurement may spend recovering from
    #: transient failures.
    retry_budget: int = 0
    #: When a measurement dead-ends, re-ping the destination: if it
    #: stopped answering mid-measurement, report ``UNRESPONSIVE``
    #: (keeping the partial path) instead of ``INCOMPLETE``.
    recheck_unresponsive: bool = False

    def variant_name(self) -> str:
        """Short label for reports (Table 4 row names)."""
        if (
            self.use_rr_atlas
            and not self.use_timestamp
            and self.use_cache
        ):
            # revtr 2.0 does not use offline alias datasets for
            # intersection; a config that adds them is a distinct
            # variant and must not reuse the revtr2.0 row label.
            if self.use_alias_intersection:
                return "revtr2.0+alias"
            return "revtr2.0"
        parts = ["revtr1.0"]
        if self.use_cache:
            parts.append("+cache")
        if not self.use_timestamp:
            parts.append("-TS")
        if self.use_rr_atlas:
            parts.append("+RRatlas")
        if not self.use_alias_intersection:
            # The revtr 1.0 baseline intersects through offline alias
            # datasets; flag configs that switch that off.
            parts.append("-alias")
        return " ".join(parts)


class _Served(NamedTuple):
    """A path served whole toward one destination, and what
    :meth:`RevtrEngine._finish` derives from its hops."""

    #: what it was served from: the segment-cache chain's entries, or
    #: a remembered abort's hops; reused only while these very objects
    #: are served again
    basis: Sequence[object]
    hops: Tuple[ReverseHop, ...]
    flagged: Tuple[ASPathEntry, ...]
    #: ``(technique value, hops)`` in order of first appearance
    tallies: Tuple[Tuple[str, int], ...]


def _hop_tallies(
    hops: Sequence[ReverseHop],
) -> Tuple[Tuple[str, int], ...]:
    """Hops per technique, keyed by ``technique._value_`` in order of
    first appearance (see :meth:`RevtrEngine._finish`)."""
    counts: Dict[str, int] = {}
    for hop in hops:
        value = hop.technique._value_
        counts[value] = counts.get(value, 0) + 1
    return tuple(counts.items())


class _Run:
    """One measurement in flight: what the openers and steps of
    :meth:`RevtrEngine._measure` read and advance."""

    __slots__ = (
        "result", "start_time", "mark", "injections", "hops", "seen",
        "spliced_at", "current", "status", "rr_dead", "served",
    )

    def __init__(self, result, start_time, mark, injections) -> None:
        self.result = result
        self.start_time = start_time
        #: the probe counter's position when the measurement began
        self.mark = mark
        #: the fault injector's count when it began (None: no injector)
        self.injections = injections
        #: the result's own hop list, grown in place
        self.hops: List[ReverseHop] = result.hops
        #: None until an opener or step settles the measurement
        self.status: Optional[RevtrStatus] = None
        #: the path an opener served whole, else None
        self.served: Optional[_Served] = None

    def depart(self) -> None:
        """Open the hop-by-hop walk: the destination placeholder hop,
        and the state the steps read and advance."""
        dst = self.result.dst
        self.hops.append(ReverseHop(dst, HopTechnique.DESTINATION))
        self.seen: Set[Address] = {dst}
        #: indices into ``hops`` of hops whose edge from their
        #: predecessor was read from the segment cache
        self.spliced_at: Set[int] = set()
        self.current: Address = dst
        #: the segment cache's verdict on ``current`` (it ignored the
        #: whole RR arsenal), rewritten by the splice step at every hop
        self.rr_dead = False

    def reach(self, source_hop: ReverseHop) -> None:
        """The path arrived: close it with the engine's source hop."""
        self.hops.append(source_hop)
        self.status = RevtrStatus.COMPLETE

    def advance(self, next_current: Optional[Address]) -> bool:
        """After adopting hops, go on from the last public one.  False
        when every one was private: the next technique tries from the
        same ``current``.  A settled path has nowhere to go."""
        if self.status is None:
            if next_current is None:
                return False
            self.current = next_current
        return True


class RevtrEngine:
    """Measures reverse traceroutes from arbitrary destinations back to
    one source."""

    def __init__(
        self,
        prober: Prober,
        source: Address,
        atlas: TracerouteAtlas,
        selector,
        ip2as: IPToASMapper,
        relationships: ASRelationships,
        config: Optional[EngineConfig] = None,
        rr_atlas: Optional[RRAtlas] = None,
        resolver: Optional[AliasResolver] = None,
        adjacency: Optional[AdjacencyDatabase] = None,
        spoofers: Sequence[Address] = (),
        instrumentation=None,
        segcache: Optional[ReverseSegmentCache] = None,
    ) -> None:
        self.prober = prober
        self.source = source
        self.atlas = atlas
        self.selector = selector
        self.ip2as = ip2as
        self.relationships = relationships
        self.config = config if config is not None else EngineConfig()
        self.rr_atlas = rr_atlas
        self.resolver = resolver if resolver is not None else AliasResolver()
        self.adjacency = adjacency
        self.cache = MeasurementCache(
            prober.clock, enabled=self.config.use_cache
        )
        #: per-source reverse-segment cache, or None: an engine built
        #: without one has no splice opener or step at all.  The
        #: service passes a shared instance so every engine measuring
        #: toward one source amortizes the same segments.
        self.segcache: Optional[ReverseSegmentCache] = segcache
        #: observability facade (metrics + events); the NULL default
        #: makes every instrumented call a no-op.  The engine wires the
        #: caches it builds and is given into it, so one parameter
        #: instruments the whole measurement path.
        self.obs = instrumentation if instrumentation is not None else NULL
        self.cache.obs = self.obs
        # Per-hop counters are plain tallies mirrored into the registry
        # at collection time (pull-style), so the measurement loop pays
        # a dict increment, not a registry update, per step.
        self._obs_on = bool(self.obs.enabled)
        self._t_steps: Dict[str, int] = {
            kind: 0
            for kind in (
                "intersect_hit", "intersect_miss", "rr_direct",
                "rr_spoofed", "ts", "symmetry",
            )
        }
        self._t_measurements: Dict[str, int] = {}
        self._t_hops: Dict[str, int] = {}
        self._t_stale = 0
        #: degradation retries by technique (revtr_retries_total)
        self._t_retries: Dict[str, int] = {}
        #: retry budget left in the measurement in flight
        self._m_retry_left = 0
        #: ping-check outcome of the measurement in flight (None until
        #: a check runs; carried on the measure.end event)
        self._m_ping = None
        #: flight-recorder handle, or None when observability is off —
        #: emit sites test one local instead of two attribute hops.
        self._ev = self.obs.events if self._obs_on else None
        #: engine-constant event fields, precomputed once: the begin
        #: event is on every measurement's hot path and
        #: ``variant_name()`` re-derives its label from flags per call
        self._variant_label = self.config.variant_name()
        self._source_str = str(source)
        #: the one SOURCE hop every path this engine completes ends
        #: with (frozen, so results share it)
        self._source_hop = ReverseHop(source, HopTechnique.SOURCE)
        if self._obs_on:
            # A segment cache shared by a source's engines is collected
            # once: registration deduplicates by equality.
            self.obs.register_collect_source(self.cache._obs_collect)
            if self.segcache is not None:
                self.obs.register_collect_source(self.segcache._obs_collect)
            self.obs.register_collect_source(self._obs_collect)
        self.spoofers = list(spoofers)
        self.symmetry = SymmetryStepper(
            prober, ip2as, source, cache=self.cache
        )
        self._terminal: Set[Address] = set()
        #: union of the terminals' ``resolver.align_keys`` — what
        #: :meth:`_is_terminal` tests against — and the resolver
        #: version it was built at
        self._terminal_keys: Set[object] = set()
        self._terminal_version = self.resolver.version
        #: destination -> (remembered abort hops, terminal state) when
        #: rule (d) last passed for them: the terminal set only grows
        #: and the resolver versions its changes, so while both stand
        #: the answer stands
        self._abort_checked: Dict[Address, Tuple[tuple, tuple]] = {}
        #: destination -> the path last served whole toward it, while
        #: the same objects serve it again; every entry goes when the
        #: AS graph's edges or the IP-to-AS overrides move (the
        #: versions below), and one when its destination is not served
        self._served: Dict[Address, _Served] = {}
        self._served_versions = (
            relationships.graph.edge_version, ip2as.version,
        )
        self._atlas_by_group: Dict[int, List[Address]] = {}
        self._harvest_terminal_from_atlas()
        if self.config.use_alias_intersection:
            self.refresh_alias_index()
        # Table 4's ladder, chosen once: what may settle a measurement
        # before the loop, and the techniques tried in order per hop.
        self._openers = []
        if self.segcache is not None:
            self._openers.append(self._open_full_splice)
        if self.config.ping_check:
            self._openers.append(self._open_ping_check)
        self._steps = [self._step_intersect]
        if self.segcache is not None:
            self._steps.append(self._step_splice)
        self._steps.append(self._step_rr)
        if self.config.use_timestamp:
            self._steps.append(self._step_timestamp)
        self._steps.append(self._step_symmetry)

    # ------------------------------------------------------------------
    # Bootstrap helpers
    # ------------------------------------------------------------------

    def _step(self, kind: str) -> None:
        """Tally one ``revtr_steps_total{kind=...}`` step.

        Unconditional, like the prober's :class:`ProbeCounter` — step
        counts are engine state (see :attr:`step_counts`); attached
        instrumentation mirrors them at collection time.
        """
        self._t_steps[kind] += 1

    @property
    def step_counts(self) -> Dict[str, int]:
        """Technique steps taken so far, keyed by kind."""
        return dict(self._t_steps)

    @property
    def retry_counts(self) -> Dict[str, int]:
        """Degradation retries taken so far, keyed by technique."""
        return dict(self._t_retries)

    def _retry_allowed(self, technique: str) -> bool:
        """Spend one unit of the measurement's retry budget, if any."""
        if self._m_retry_left <= 0:
            return False
        self._m_retry_left -= 1
        self._t_retries[technique] = (
            self._t_retries.get(technique, 0) + 1
        )
        if self._ev is not None:
            self._ev.emit(
                "degrade.retry",
                technique=technique,
                budget_left=self._m_retry_left,
            )
        return True

    def _obs_collect(self) -> Dict:
        """Step, measurement, hop, stale-intersection and retry
        tallies, plus the age gauges of the source's atlas.

        Evaluated only at collection (snapshot/sample) time: atlas ages
        are derived from the traceroutes' stored timestamps against the
        sim clock, so the measurement path never touches them.
        """
        out: Dict = {}
        for kind, n in self._t_steps.items():
            if n:
                out[("revtr_steps_total", (("kind", kind),))] = float(n)
        for status, n in self._t_measurements.items():
            out[
                ("revtr_measurements_total", (("status", status),))
            ] = float(n)
        for technique, n in self._t_hops.items():
            out[
                ("revtr_hops_total", (("technique", technique),))
            ] = float(n)
        if self._t_stale:
            out[("atlas_stale_intersections_total", ())] = float(
                self._t_stale
            )
        for technique, n in self._t_retries.items():
            out[
                ("revtr_retries_total", (("technique", technique),))
            ] = float(n)
        traceroutes = self.atlas.traceroutes
        if not traceroutes:
            return out
        now = self.prober.clock.now()
        ages = [
            max(0.0, now - trace.timestamp)
            for trace in traceroutes.values()
        ]
        source_label = (("source", self._source_str),)
        out[
            ("atlas_age_seconds", source_label + (("stat", "oldest"),))
        ] = max(ages)
        out[
            ("atlas_age_seconds", source_label + (("stat", "mean"),))
        ] = sum(ages) / len(ages)
        return out

    def _fallback(
        self,
        outcome: str,
        link: Optional[str] = None,
        hop: Optional[Address] = None,
        penultimate: Optional[Address] = None,
    ) -> None:
        if self._ev is not None:
            # One event carries the whole assume-symmetry decision
            # (outcome + the penultimate hop it hinged on) — the hot
            # loop emits a single record per fallback, not two.
            self._ev.emit_t(
                "fallback", (outcome, link, hop, penultimate)
            )

    def _harvest_terminal_from_atlas(self) -> None:
        """Learn the source's first-hop addresses from atlas tails."""
        for trace in self.atlas.traceroutes.values():
            if not trace.reached:
                continue
            hops = trace.responsive_hops()
            if len(hops) >= 2 and hops[-1] == self.source:
                self._add_terminal(hops[-2])

    def refresh_alias_index(self) -> None:
        """Rebuild the ITDK-group → atlas-hop index (revtr 1.0 path)."""
        self._atlas_by_group.clear()
        for addr in self.atlas.all_hops():
            group = self.resolver.group_of(addr)
            if group is not None:
                self._atlas_by_group.setdefault(group, []).append(addr)

    def _add_terminal(self, addr: Address) -> None:
        """Record *addr* as a first-hop address of the source."""
        if addr not in self._terminal:
            self._terminal.add(addr)
            self._terminal_keys |= self.resolver.align_keys(addr)

    def _is_terminal(self, addr: Address) -> bool:
        """Is *addr* the source, or aligned with one of its first hops?

        ``resolver.aligned(addr, t)`` for some terminal *t*, asked as
        one intersection with the terminals' key union.  The union is
        rebuilt when the resolver has regrouped addresses since it was
        taken, so the answer is the scan's at every moment.
        """
        if addr == self.source:
            return True
        resolver = self.resolver
        if self._terminal_version != resolver.version:
            self._terminal_version = resolver.version
            self._terminal_keys = set().union(
                *map(resolver.align_keys, self._terminal)
            )
        return not self._terminal_keys.isdisjoint(
            resolver.align_keys(addr)
        )

    # ------------------------------------------------------------------
    # Techniques
    # ------------------------------------------------------------------

    def _intersect(self, current: Address) -> Optional[Intersection]:
        # A miss is a handful of dict lookups — tallied (the
        # ``revtr_steps_total{kind="intersect_miss"}`` counter and the
        # atlas's own hit/miss series) but not worth a record.  A hit
        # ends the measurement, so its event carries the intersection
        # details.
        hit, via = self._intersect_lookup(current)
        if hit is None:
            # No event for the miss: the loop proceeds to an rr.step,
            # whose event implies the preceding atlas miss (the ledger
            # synthesises the miss line), so the hot path pays one
            # emit per hop instead of two.
            self._step("intersect_miss")
            return None
        self._step("intersect_hit")
        if self._ev is not None:
            self._ev.emit_t(
                "intersect", (current, "hit", via, hit.vp, hit.index)
            )
        return hit

    def _intersect_lookup(
        self, current: Address
    ) -> Tuple[Optional[Intersection], str]:
        """The raw lookup; returns (hit, which index answered)."""
        hit = self.atlas.lookup(current)
        if hit is not None:
            return hit, "atlas"
        if self.config.use_rr_atlas and self.rr_atlas is not None:
            hit = self.rr_atlas.lookup(current)
            if hit is not None:
                return hit, "rr-atlas"
        if self.config.use_alias_intersection:
            peer = slash30_peer(current)
            if peer is not None:
                hit = self.atlas.lookup(peer)
                if hit is not None:
                    return hit, "slash30-peer"
            group = self.resolver.group_of(current)
            if group is not None:
                for alias in self._atlas_by_group.get(group, ()):
                    hit = self.atlas.lookup(alias)
                    if hit is not None:
                        return hit, "itdk-alias"
        return None, "miss"

    def _rr_step(
        self, current: Address
    ) -> Tuple[List[Address], HopTechnique]:
        """Try to reveal reverse hops from *current* with record route."""
        ev = self._ev
        key = ("rr-step", self.source, current)
        cached = self.cache.get(key)
        if cached is not None:
            if ev is not None:
                ev.emit_t(
                    "rr.step",
                    (current, "cache", cached[1]._value_, len(cached[0])),
                )
            return cached

        faults = self.prober.internet.faults
        mark = faults.injections if faults is not None else 0

        result = self.prober.rr_ping(self.source, current)
        self._step("rr_direct")
        attempts = 0
        while (
            not result.responded
            and attempts < _RR_RETRIES
            and self._retry_allowed("rr")
        ):
            # A silent direct RR may just be a lost packet; the budget
            # buys another look before the spoofed fleet (10 s of batch
            # timeout per round) takes over.
            attempts += 1
            result = self.prober.rr_ping(self.source, current)
            self._step("rr_direct")
        if result.responded and result.reverse_hops():
            outcome = (result.reverse_hops(), HopTechnique.RR)
            if ev is not None:
                ev.emit_t(
                    "rr.step", (current, "direct", "rr", len(outcome[0]))
                )
            self.cache.put(key, outcome)
            return outcome

        batches = 0
        for results in self._spoofed_batches(current):
            batches += 1
            if not results:
                # Health filtering can empty a batch entirely (every VP
                # quarantined, no healthy replacement).
                continue
            best = max(results, key=lambda r: len(r.reverse_hops()))
            if best.reverse_hops():
                outcome = (best.reverse_hops(), HopTechnique.SPOOFED_RR)
                if ev is not None:
                    ev.emit_t(
                        "rr.step",
                        (current, "spoofed", "spoofed-rr",
                         len(outcome[0]), batches),
                    )
                self.cache.put(key, outcome)
                return outcome
        outcome = ([], HopTechnique.SPOOFED_RR)
        if ev is not None:
            ev.emit_t(
                "rr.step", (current, "none", "spoofed-rr", 0, batches)
            )
        if faults is None or faults.injections == mark:
            # Not when an injected fault fired during this step: the
            # empty outcome may be transient, so it stays out of the
            # day-scale negative cache (positive outcomes above are
            # still cached — revealed hops are real however lossy the
            # path was).
            self.cache.put(key, outcome)
            if self.segcache is not None:
                # The router ignored the whole RR arsenal: remember that
                # so sibling measurements skip the fleet too.
                self.segcache.store_negative(current)
        return outcome

    def _spoofed_batches(self, current: Address):
        """Yield spoofed-RR result batches for *current*.

        With a session-capable selector this runs the §4.3 feedback
        loop: each probe's recorded slots are reported back, and VPs
        whose measurements missed their expected ingress are replaced
        by the next-closest candidates. Otherwise the selector's
        static batch order is used.
        """
        session = None
        if hasattr(self.selector, "session"):
            session = self.selector.session(current)
        if session is not None:
            for index in range(_MAX_BATCHES_PER_HOP):
                batch = [
                    vp
                    for vp in session.next_batch()
                    if vp != self.source
                ]
                if not batch:
                    return
                results = self._instrumented_batch(
                    current, batch, index=index, mode="session"
                )
                for probe_result in results:
                    session.observe(
                        probe_result.vp, probe_result.slots
                    )
                yield results
            return
        for index, batch in enumerate(self.selector.batches(current)):
            if index >= _MAX_BATCHES_PER_HOP:
                return
            vps = [vp for vp in batch if vp != self.source]
            if not vps:
                continue
            yield self._instrumented_batch(
                current, vps, index=index, mode="static"
            )

    def _instrumented_batch(
        self, current: Address, vps, index: int = 0, mode: str = "static"
    ):
        health = self.prober.health
        if health is not None:
            vps, replaced = health.filter_batch(
                vps, self.spoofers, exclude=(self.source,)
            )
            if replaced and self._ev is not None:
                self._ev.emit(
                    "degrade.replace",
                    hop=current,
                    batch=index,
                    replaced=replaced,
                )
            if not vps:
                return []
        results = self.prober.spoofed_rr_batch(
            vps, current, spoof_as=self.source
        )
        self._step("rr_spoofed")
        if self._ev is not None:
            # The VP list is the "which vantage points and why" record:
            # order reflects the selector's ranking (ingress-closest
            # first in session mode).
            responses = sum(1 for r in results if r.responded)
            self._ev.emit_t(
                "rr.batch",
                (current, index, mode, tuple(vps), responses),
            )
        return results

    def _refresh_intersection(self, hit, current: Address):
        """Re-measure an over-age atlas traceroute online (Appendix A's
        per-request staleness bound), then retry the lookup."""
        from repro.probing.traceroute import paris_traceroute

        if self._ev is not None:
            self._ev.emit(
                "intersect.refresh", hop=current, vp=hit.vp
            )
        trace = paris_traceroute(self.prober, hit.vp, self.source)
        if trace.responsive_hops():
            self.atlas.add(trace)
        if self.config.use_alias_intersection:
            self.refresh_alias_index()
        return self._intersect(current)

    def _timestamp_step(self, current: Address) -> Optional[Address]:
        """revtr 1.0's adjacency tests via tsprespec (Fig. 1e).

        The /30 peer of an RR-discovered egress interface is the far
        end of the link — a prime next-hop candidate, not an alias —
        so it is tested first, followed by traceroute-graph
        adjacencies of the hop and of its peer.
        """
        if self.adjacency is None:
            return None
        self._step("ts")
        candidates: List[Address] = []
        peer = slash30_peer(current)
        if peer is not None:
            candidates.append(peer)
        candidates += self.adjacency.neighbors(
            current,
            aliases=[peer] if peer else None,
            limit=_MAX_ADJACENCIES,
        )
        seen_candidates: Set[Address] = set()
        candidates = [
            c
            for c in candidates
            if not (c in seen_candidates or seen_candidates.add(c))
        ][: _MAX_ADJACENCIES]
        for adj in candidates:
            result = self.prober.ts_ping(
                self.source, current, [current, adj]
            )
            if not result.responded and self.spoofers:
                result = self.prober.ts_ping(
                    self.spoofers[0],
                    current,
                    [current, adj],
                    spoof_as=self.source,
                )
            if result.adjacency_on_reverse_path:
                if self._ev is not None:
                    self._ev.emit_t(
                        "ts.step", (current, len(candidates), adj)
                    )
                return adj
        if self._ev is not None:
            self._ev.emit_t("ts.step", (current, len(candidates), None))
        return None

    # ------------------------------------------------------------------
    # The measurement loop
    # ------------------------------------------------------------------

    def _segcache_store(
        self, hops: List[ReverseHop], read: Set[int]
    ) -> None:
        """Feed the edges a completed path revealed into the segment
        cache.

        Each consecutive ``(a, b)`` hop pair is one reusable reverse
        edge: from ``a.addr`` the next reverse hop toward the source is
        *b* itself, address, technique and all — valid for every
        measurement toward this source under destination-based routing.
        The destination placeholder hop is never a successor, and
        duplicate-address pairs (alias stitches) are skipped.  So is
        every pair whose successor's index is in *read*: this
        measurement read that edge out of the cache under ``a.addr``,
        and storing it again would restamp it, so an entry's
        ``stored_at`` stays the time a measurement revealed it.
        """
        segcache = self.segcache
        for index, (a, b) in enumerate(zip(hops, hops[1:]), 1):
            if index in read:
                continue
            if b.technique is HopTechnique.DESTINATION:
                continue
            if a.addr == b.addr:
                continue
            segcache.store(a.addr, b)

    def measure_many(
        self, dsts: Sequence[Address]
    ) -> List[ReverseTracerouteResult]:
        """Measure a batch of destinations toward the source, one after
        another: the group shares the engine's caches and nothing else,
        so a group of one is :meth:`measure`."""
        return [self.measure(dst) for dst in dsts]

    def measure(self, dst: Address) -> ReverseTracerouteResult:
        """Measure the reverse path from *dst* back to the source.

        With live instrumentation, each call records its decisions in
        the flight recorder under one measurement id, from
        ``measure.begin`` to ``measure.end``, and bumps the ``revtr_*``
        metrics; with the null facade the control flow is byte-for-byte
        the same, and nothing is built for the facade.
        """
        ev = self._ev
        if ev is None:
            # ``_ev`` is None exactly when observability is off.
            return self._measure(dst)
        mid = ev.new_measurement_id()
        previous_mid = ev.set_current(mid)
        ev.emit_t(
            "measure.begin",
            (self._source_str, dst, self._variant_label),
        )
        try:
            result = self._measure(dst)
            result.measurement_id = mid
            return result
        finally:
            ev.set_current(previous_mid)

    def _measure(self, dst: Address) -> ReverseTracerouteResult:
        """Fig. 2.  Unless an opener settles the measurement outright,
        walk back from the destination, trying this variant's techniques
        in order at each hop.  The loop owns termination, a step owns
        one hop: True when it advanced ``run.current`` or settled
        ``run.status``, False to fall through to the next technique."""
        run = self._begin(dst)
        for opener in self._openers:
            if opener(run):
                break
        else:
            hops = run.hops
            run.depart()
            while run.status is None and len(hops) < _MAX_PATH_HOPS:
                if self._is_terminal(run.current):
                    run.reach(self._source_hop)
                    break
                for step in self._steps:
                    if step(run):
                        break
            if self.segcache is not None:
                if run.status is RevtrStatus.COMPLETE:
                    self._segcache_store(hops, run.spliced_at)
                elif run.status is RevtrStatus.ABORTED_INTERDOMAIN:
                    self._remember_abort(run)
        self._finish(run)
        return run.result

    def _begin(self, dst: Address) -> _Run:
        """Reset the per-measurement tallies; open the run state."""
        prober = self.prober
        start_time = prober.clock.now()
        # Opportunistic TTL sweep so a long-running service does not
        # accumulate a day of dead entries (rate-limited internally).
        self.cache.maybe_purge()
        self._m_retry_left = self.config.retry_budget
        # Ping-check outcome (None until checked); rides on the
        # measure.end event instead of an event of its own — one ping
        # is not worth a flight-recorder record per measurement.
        self._m_ping = None
        result = ReverseTracerouteResult(
            src=self.source, dst=dst, status=RevtrStatus.INCOMPLETE
        )
        faults = prober.internet.faults
        # Fixed-size position marker, not a Counter copy: the
        # per-measurement probe delta must not scale with how many
        # probe kinds the global counter has accumulated.
        return _Run(
            result, start_time, prober.counter.mark(),
            faults.injections if faults is not None else None,
        )

    def _atlas_versions(self) -> Tuple[object, ...]:
        """What a remembered abort's rule (e) compares: the versions of
        the atlases this engine intersects with."""
        rr_atlas = self.rr_atlas
        return (
            self.atlas.version,
            rr_atlas.version if rr_atlas is not None else None,
        )

    def _remember_abort(self, run: _Run) -> None:
        """Hand an aborted path to the segment cache, unless a fault
        fired while it was measured (rule (f)): a repeat could differ."""
        faults = self.prober.internet.faults
        if faults is not None and faults.injections != run.injections:
            return
        self.segcache.store_abort(
            run.result.dst, run.hops, self._atlas_versions()
        )

    def _remembered_abort(
        self, dst: Address
    ) -> Optional[Tuple[ReverseHop, ...]]:
        """The hops of the abort the segment cache remembers toward
        *dst*, while a fresh measurement would reach it again (the
        cache checks rules (a)-(c) and (e); this adds (d) and (f));
        else None."""
        if self.prober.internet.faults is not None:
            return None
        hops = self.segcache.lookup_abort(dst, self._atlas_versions())
        if hops is None:
            self._abort_checked.pop(dst, None)
            return None
        state = (len(self._terminal), self.resolver.version)
        checked = self._abort_checked.get(dst)
        if checked is None or checked[0] is not hops or checked[1] != state:
            is_terminal = self._is_terminal
            if any(is_terminal(hop.addr) for hop in hops):
                return None
            self._abort_checked[dst] = (hops, state)
        return hops

    def _open_full_splice(self, run: _Run) -> bool:
        """Serve a measurement entirely from the segment cache.

        When the cache holds an unbroken chain from *dst* all the way
        to the source, every hop of the reverse path was adopted by an
        earlier completed measurement inside the entry TTL — and that
        measurement already verified the destination's liveness.
        Re-running the ping check and the per-hop loop would re-derive
        the same path one cache hit at a time, so the whole path is
        spliced in one step: no ping check and no per-hop probes.  Each
        spliced hop is the stored entry's hop, not a copy.  Any break
        in the chain — miss, negative entry, generation bump, TTL
        expiry, a loop, or a chain longer than the hop budget — returns
        False and the normal measurement loop (ping check included)
        takes over.  Every edge served was read, so nothing is stored
        back.

        Without such a chain, a remembered abort toward *dst*
        (:meth:`_remembered_abort`) is served the same way: its stored
        hops, status ``aborted-interdomain-symmetry``, no probe.
        """
        dst = run.result.dst
        chain, _ = self.segcache.chain(dst, _MAX_PATH_HOPS - 1)
        if not chain or chain[-1].next_hop != self.source:
            hops = self._remembered_abort(dst)
            if hops is None:
                self._served.pop(dst, None)
                return False
            served = self._served_path(dst, hops)
            if served is None:
                served = self._remember_served(dst, hops, hops)
            run.hops.extend(hops)
            run.status = RevtrStatus.ABORTED_INTERDOMAIN
            run.served = served
            self.segcache.note_splice()
            if self._ev is not None:
                self._ev.emit_t("splice", (dst, len(hops) - 1, False, True))
            return True
        served = self._served_path(dst, chain)
        if served is None:
            hops = [ReverseHop(dst, HopTechnique.DESTINATION)]
            hops.extend([entry.hop for entry in chain[:-1]])
            hops.append(self._source_hop)
            served = self._remember_served(dst, chain, hops)
        run.hops.extend(served.hops)
        run.status = RevtrStatus.COMPLETE
        run.served = served
        self.segcache.note_splice()
        if self._ev is not None:
            self._ev.emit_t("splice", (dst, len(chain), True, True))
        return True

    def _served_path(
        self, dst: Address, basis: Sequence[object]
    ) -> Optional[_Served]:
        """The path last served whole toward *dst*, if it was served
        from the very objects in *basis* (chain entries or remembered
        hops, which fix every hop address) and neither the AS graph's
        edges nor the IP-to-AS overrides have moved since; else
        None."""
        versions = (
            self.relationships.graph.edge_version, self.ip2as.version,
        )
        if versions != self._served_versions:
            self._served.clear()
            self._served_versions = versions
            return None
        served = self._served.get(dst)
        if (
            served is None
            or len(served.basis) != len(basis)
            or not all(map(is_, served.basis, basis))
        ):
            return None
        return served

    def _remember_served(
        self,
        dst: Address,
        basis: Sequence[object],
        hops: Sequence[ReverseHop],
    ) -> _Served:
        """Derive what :meth:`_finish` reads off *hops*, served whole
        toward *dst* from *basis*, and keep it for the next serve."""
        served = self._served[dst] = _Served(
            basis,
            tuple(hops),
            tuple(
                flag_suspicious_links(
                    [hop.addr for hop in hops],
                    self.ip2as,
                    self.relationships,
                )
            ),
            _hop_tallies(hops),
        )
        return served

    def _open_ping_check(self, run: _Run) -> bool:
        """Settle a destination that answers no ping, with no hops."""
        dst = run.result.dst
        alive = self.prober.ping(self.source, dst) is not None
        attempts = 0
        while (
            not alive
            and attempts < _PING_RETRIES
            and self._retry_allowed("ping")
        ):
            attempts += 1
            alive = self.prober.ping(self.source, dst) is not None
        self._m_ping = alive
        if not alive:
            run.status = RevtrStatus.UNRESPONSIVE
        return not alive

    def _step_intersect(self, run: _Run) -> bool:
        """Is the current hop on a known route to the source?  A hit
        stitches the rest of that route on and completes the path."""
        current = run.current
        clock = self.prober.clock
        max_age = self.config.max_intersection_age
        hit = self._intersect(current)
        if (
            hit is not None
            and max_age is not None
            and clock.now() - hit.timestamp > max_age
        ):
            # Appendix A option: the user asked for fresher data
            # than the atlas holds — re-measure the traceroute
            # online before trusting the intersection.
            hit = self._refresh_intersection(hit, current)
        if hit is None:
            return False
        result = run.result
        hops = run.hops
        source = self.source
        result.intersection_vp = hit.vp
        stale = self.atlas.is_stale(hit, clock.now())
        result.stale_intersection = stale
        if stale:
            self._t_stale += 1
        self.atlas.mark_useful(hit.vp)
        source_hop = self._source_hop
        before = len(hops)
        for addr in self.atlas.suffix(hit):
            hops.append(
                source_hop
                if addr == source
                else ReverseHop(addr, HopTechnique.INTERSECTION)
            )
        if hops[-1].addr != source:
            hops.append(source_hop)
        if self._ev is not None:
            self._ev.emit_t(
                "stitch", (hit.vp, hit.index, len(hops) - before, stale)
            )
        run.status = RevtrStatus.COMPLETE
        return True

    def _step_splice(self, run: _Run) -> bool:
        """Reuse (§5): the atlas missed; before spending probes, splice
        any chain of reverse hops that an earlier completed measurement
        toward this source already revealed from here.  Generation/TTL
        invalidation happens inside the lookup; the seen-set stop keeps
        splices loop-free."""
        current = run.current
        hops = run.hops
        seen = run.seen
        chain, run.rr_dead = self.segcache.chain(
            current,
            _MAX_PATH_HOPS - len(hops),
            stop=seen.__contains__,
        )
        if run.rr_dead:
            # Cached negative entry: this router recently ignored the
            # entire RR arsenal — skip straight to the TS/fallback
            # steps instead of re-aiming the VP fleet at it.
            if self._ev is not None:
                self._ev.emit_t("splice.negative", (current,))
            return False
        if not chain:
            return False
        source = self.source
        next_current: Optional[Address] = None
        spliced_before = len(hops)
        for entry in chain:
            addr = entry.next_hop
            if addr == source:
                run.reach(self._source_hop)
                break
            # The stored hop itself: frozen, so shared, not copied.
            hops.append(entry.hop)
            seen.add(addr)
            if not is_private(addr):
                next_current = addr
        # The chain was fetched under ``current`` (the last *public*
        # hop) and then under each spliced hop in turn.  When ``hops``
        # ended in private hops, the first spliced hop follows one of
        # those instead: an edge keyed by the private address, which
        # this measurement revealed rather than read.
        first_read = spliced_before
        if hops[spliced_before - 1].addr != current:
            first_read += 1
        run.spliced_at.update(range(first_read, len(hops)))
        # Mid-chain hops are provably non-terminal: the completed
        # measurement that stored them continued past them (a terminal
        # hop would have ended that path with a cached hop -> source
        # edge, which the loop above adopts).  Only a partial chain's
        # last hop needs the alias-of-source check, so the per-hop
        # ``_is_terminal`` scan collapses to one.
        if (
            run.status is None
            and next_current is not None
            and self._is_terminal(next_current)
        ):
            run.reach(self._source_hop)
        spliced = len(hops) - spliced_before
        self.segcache.note_splice()
        if self._ev is not None:
            self._ev.emit_t(
                "splice", (current, spliced, run.status is not None)
            )
        return run.advance(next_current)

    def _step_rr(self, run: _Run) -> bool:
        """Record route, direct then spoofed (:meth:`_rr_step`): adopt
        the revealed hops this path has not seen yet."""
        if run.rr_dead:
            return False
        revealed, technique = self._rr_step(run.current)
        hops = run.hops
        seen = run.seen
        fresh = [addr for addr in revealed if addr not in seen]
        if not fresh:
            return False
        next_current: Optional[Address] = None
        adopted_before = len(hops)
        for addr in fresh:
            hops.append(ReverseHop(addr, technique))
            seen.add(addr)
            if not is_private(addr):
                next_current = addr
            if self._is_terminal(addr):
                run.reach(self._source_hop)
                break
        if self._ev is not None:
            adopted = [
                hop.addr
                for hop in hops[adopted_before:]
                if hop.technique is technique
            ]
            self._ev.emit_t(
                "hops.adopted", (technique._value_, tuple(adopted))
            )
        return run.advance(next_current)

    def _step_timestamp(self, run: _Run) -> bool:
        """revtr 1.0 only: adopt an adjacency a tsprespec test put on
        the reverse path (:meth:`_timestamp_step`)."""
        adjacent = self._timestamp_step(run.current)
        if adjacent is None or adjacent in run.seen:
            return False
        run.hops.append(ReverseHop(adjacent, HopTechnique.TIMESTAMP))
        run.seen.add(adjacent)
        run.current = adjacent
        return True

    def _step_symmetry(self, run: _Run) -> bool:
        """Last resort, always decisive: from a forward traceroute,
        reach the source, adopt the penultimate hop, or give up."""
        current = run.current
        outcome = self.symmetry.step(current)
        penultimate = outcome.penultimate
        link = outcome.link
        self._step("symmetry")
        if outcome.traceroute is not None:
            first = next(
                (h for h in outcome.traceroute.hops if h is not None),
                None,
            )
            if first is not None:
                self._add_terminal(first)
        if outcome.adjacent_to_source:
            self._fallback("adjacent-source", hop=current)
            run.reach(self._source_hop)
        elif penultimate is None or penultimate in run.seen:
            self._fallback("dead-end", hop=current)
            run.status = RevtrStatus.INCOMPLETE
            dst = run.result.dst
            if (
                self.config.recheck_unresponsive
                and self.config.ping_check
                and self.prober.ping(self.source, dst) is None
            ):
                # The destination died mid-measurement: classify as
                # UNRESPONSIVE while keeping every hop gathered before
                # the stall (the partial path and its probe accounting
                # survive: only the ping opener reports no hops).
                run.status = RevtrStatus.UNRESPONSIVE
        elif (
            self.config.symmetry is SymmetryPolicy.INTRADOMAIN_ONLY
            and link is not LinkType.INTRA
        ):
            self._fallback(
                "aborted-interdomain", link.value,
                hop=current, penultimate=penultimate,
            )
            run.status = RevtrStatus.ABORTED_INTERDOMAIN
        else:
            self._fallback(
                "adopted", link.value,
                hop=current, penultimate=penultimate,
            )
            run.hops.append(
                ReverseHop(
                    penultimate, HopTechnique.ASSUMED_SYMMETRY,
                    assumed_link=link.value,
                )
            )
            run.seen.add(penultimate)
            run.current = penultimate
        return True

    def _finish(self, run: _Run) -> None:
        result = run.result
        if run.status is not None:
            result.status = run.status
        result.duration = self.prober.clock.now() - run.start_time
        result.probe_counts = self.prober.counter.delta(run.mark)
        served = run.served
        if served is not None:
            # Each result gets its own list.
            result.flagged_as_path = list(served.flagged)
            tallies = served.tallies
        else:
            if result.hops:
                result.flagged_as_path = flag_suspicious_links(
                    result.addresses(), self.ip2as, self.relationships
                )
            tallies = _hop_tallies(result.hops)
        status = result.status._value_
        self._t_measurements[status] = (
            self._t_measurements.get(status, 0) + 1
        )
        # Keyed by ``._value_``: an enum-keyed tally would pay a
        # Python-level ``Enum.__hash__`` per hop, and ``.value`` a
        # descriptor call (see the measure.end note below).
        t_hops = self._t_hops
        for value, count in tallies:
            t_hops[value] = t_hops.get(value, 0) + count
        if self._obs_on:
            self.obs.observe(
                "revtr_measure_duration_seconds", result.duration
            )
        if self._ev is not None:
            # The closing ledger entry: final status, the probe budget
            # actually spent, and the full path with per-hop technique
            # attribution (so `repro explain` can reconstruct the
            # decision record even if mid-flight events were dropped).
            self._ev.emit_t(
                "measure.end",
                (
                    status,
                    len(result.hops),
                    result.duration,
                    # None when no ping-check ran (disabled, or the
                    # whole-path splice fast path skipped it).
                    self._m_ping,
                    dict(result.probe_counts),
                    # Tuples, not lists: stored field payloads live in
                    # the event ring, and all-atomic tuples (unlike
                    # lists) let the GC untrack the whole record after
                    # one scan.  ._value_ not .value: Enum.value goes
                    # through a DynamicClassAttribute descriptor (~4x
                    # the cost of a plain slot read), and this runs
                    # once per hop per measurement.
                    tuple(
                        [
                            (hop.addr, hop.technique._value_)
                            for hop in result.hops
                        ]
                    ),
                ),
            )
