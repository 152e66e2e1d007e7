"""Reference measurement loop: the pre-split ``_measure``, verbatim.

``RevtrEngine._measure`` used to be one 379-line function that inlined
Fig. 2's control flow, segment-cache reuse, the coalescer, degradation
retries, the Appendix A/E options and the obs recording into each
other, with ``_splice_full_path`` and a three-argument ``_finish``
beside it.  ``src/`` now runs a loop over named openers and steps; the
three original methods are kept here on a subclass, unedited but for
reading ``_MAX_PATH_HOPS`` / ``_PING_RETRIES`` where they read the
``EngineConfig`` fields of those names before they became constants,
reading a segment entry's technique and link through its ``hop``,
counting hops per technique inline where they called the deleted
``ReverseTracerouteResult.hops_by_technique``, keying the coalesced
ping memo by destination where it keyed it by /24 (hosts of one /24
answer pings independently), dropping the never-read
``pings_coalesced`` tally, dropping the Appendix E violation check
that ``src/`` deleted with ``EngineConfig.detect_violations``, and
reading the coalescer through
``getattr(self, "_coalescer", None)`` since ``src/`` deleted it (so
the memo is never consulted: every ``measure_many`` group runs
destination by destination), so
``tests/test_measure_loop.py`` can serve one request stream through
both and require every observable to agree.  Everything the methods
call (``_rr_step``, ``_intersect``, ``_timestamp_step``,
``_segcache_store``, ...) is inherited, so only the loop differs.
Test-only: nothing under ``src/`` imports it.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Set

import repro.experiments.common as scenario_module
from repro.core.flags import flag_suspicious_links
from repro.core.result import (
    HopTechnique,
    ReverseHop,
    ReverseTracerouteResult,
    RevtrStatus,
)
from repro.core.revtr import _MAX_PATH_HOPS, _PING_RETRIES, RevtrEngine
from repro.core.symmetry import LinkType, SymmetryPolicy
from repro.net.addr import Address, is_private


@contextmanager
def reference_measure_loop() -> Iterator[None]:
    """Engines that ``Scenario.engine`` builds inside the block run
    the original ``_measure``."""
    scenario_module.RevtrEngine = ReferenceMeasureEngine
    try:
        yield
    finally:
        scenario_module.RevtrEngine = RevtrEngine


class ReferenceMeasureEngine(RevtrEngine):
    """``RevtrEngine`` with the original one-function ``_measure``."""

    def _measure(self, dst: Address) -> ReverseTracerouteResult:
        clock = self.prober.clock
        start_time = clock.now()
        # Opportunistic TTL sweep so a long-running service does not
        # accumulate a day of dead entries (rate-limited internally).
        self.cache.maybe_purge()
        self._m_retry_left = self.config.retry_budget
        # Ping-check outcome (None until checked); rides on the
        # measure.end event instead of an event of its own — one ping
        # is not worth a flight-recorder record per measurement.
        self._m_ping = None
        # Fixed-size position marker, not a Counter copy: the
        # per-measurement probe delta must not scale with how many
        # probe kinds the global counter has accumulated.
        counts_before = self.prober.counter.mark()

        result = ReverseTracerouteResult(
            src=self.source, dst=dst, status=RevtrStatus.INCOMPLETE
        )

        if self.segcache is not None:
            fast = self._splice_full_path(
                dst, result, start_time, counts_before
            )
            if fast is not None:
                return fast

        if self.config.ping_check:
            coalescer = getattr(self, "_coalescer", None)
            dst_prefix = (
                dst if coalescer is not None else None
            )
            alive = (
                coalescer.ping_alive.get(dst_prefix)
                if coalescer is not None
                else None
            )
            if alive is not None:
                # A sibling in the coalesced group already checked this
                # destination prefix's liveness.
                pass
            else:
                alive = self.prober.ping(self.source, dst) is not None
                attempts = 0
                while (
                    not alive
                    and attempts < _PING_RETRIES
                    and self._retry_allowed("ping")
                ):
                    attempts += 1
                    alive = (
                        self.prober.ping(self.source, dst) is not None
                    )
                if coalescer is not None:
                    coalescer.ping_alive[dst_prefix] = alive
            self._m_ping = alive
            if not alive:
                result.status = RevtrStatus.UNRESPONSIVE
                self._finish(result, start_time, counts_before)
                return result

        hops: List[ReverseHop] = [
            ReverseHop(dst, HopTechnique.DESTINATION)
        ]
        seen: Set[Address] = {dst}
        #: indices into ``hops`` of hops whose edge from their
        #: predecessor was read from the segment cache
        spliced_at: Set[int] = set()
        current = dst
        status: Optional[RevtrStatus] = None
        source = self.source

        while len(hops) < _MAX_PATH_HOPS:
            if self._is_terminal(current):
                hops.append(ReverseHop(source, HopTechnique.SOURCE))
                status = RevtrStatus.COMPLETE
                break

            hit = self._intersect(current)
            if (
                hit is not None
                and self.config.max_intersection_age is not None
                and clock.now() - hit.timestamp
                > self.config.max_intersection_age
            ):
                # Appendix A option: the user asked for fresher data
                # than the atlas holds — re-measure the traceroute
                # online before trusting the intersection.
                hit = self._refresh_intersection(hit, current)
            if hit is not None:
                result.intersection_vp = hit.vp
                result.stale_intersection = self.atlas.is_stale(
                    hit, clock.now()
                )
                if result.stale_intersection:
                    self._t_stale += 1
                self.atlas.mark_useful(hit.vp)
                before = len(hops)
                for addr in self.atlas.suffix(hit):
                    technique = (
                        HopTechnique.SOURCE
                        if addr == source
                        else HopTechnique.INTERSECTION
                    )
                    hops.append(ReverseHop(addr, technique))
                if hops[-1].addr != source:
                    hops.append(ReverseHop(source, HopTechnique.SOURCE))
                if self._ev is not None:
                    self._ev.emit_t(
                        "stitch",
                        (hit.vp, hit.index, len(hops) - before,
                         result.stale_intersection),
                    )
                status = RevtrStatus.COMPLETE
                break

            revealed: List[Address] = []
            technique = HopTechnique.SPOOFED_RR
            skip_rr = False
            if self.segcache is not None:
                # The atlas missed; before spending probes, splice any
                # chain of reverse hops that an earlier completed
                # measurement toward this source already revealed from
                # here.  Generation/TTL invalidation happens inside the
                # lookup; the seen-set stop keeps splices loop-free.
                limit = _MAX_PATH_HOPS - len(hops)
                chain, known_dead = self.segcache.chain(
                    current, limit, stop=seen.__contains__
                )
                if known_dead:
                    # Cached negative entry: this router recently
                    # ignored the entire RR arsenal — skip straight to
                    # the TS/fallback steps instead of re-aiming the
                    # VP fleet at it.
                    skip_rr = True
                    if self._ev is not None:
                        self._ev.emit_t(
                            "splice.negative", (current,)
                        )
                elif chain:
                    terminated = False
                    next_current: Optional[Address] = None
                    spliced_before = len(hops)
                    for entry in chain:
                        addr = entry.next_hop
                        if addr == source:
                            hops.append(
                                ReverseHop(source, HopTechnique.SOURCE)
                            )
                            status = RevtrStatus.COMPLETE
                            terminated = True
                            break
                        hops.append(
                            ReverseHop(
                                addr,
                                entry.hop.technique,
                                assumed_link=entry.hop.assumed_link,
                            )
                        )
                        seen.add(addr)
                        if not is_private(addr):
                            next_current = addr
                    # The chain was fetched under ``current`` (the last
                    # *public* hop) and then under each spliced hop in
                    # turn.  When ``hops`` ended in private hops, the
                    # first spliced hop follows one of those instead:
                    # an edge keyed by the private address, which this
                    # measurement revealed rather than read.
                    first_read = spliced_before
                    if hops[spliced_before - 1].addr != current:
                        first_read += 1
                    spliced_at.update(range(first_read, len(hops)))
                    # Mid-chain hops are provably non-terminal: the
                    # completed measurement that stored them continued
                    # past them (a terminal hop would have ended that
                    # path with a cached hop -> source edge, which the
                    # loop above adopts).  Only a partial chain's last
                    # hop needs the alias-of-source check, so the
                    # per-hop ``_is_terminal`` scan collapses to one.
                    if (
                        not terminated
                        and next_current is not None
                        and self._is_terminal(next_current)
                    ):
                        hops.append(
                            ReverseHop(source, HopTechnique.SOURCE)
                        )
                        status = RevtrStatus.COMPLETE
                        terminated = True
                    spliced = len(hops) - spliced_before
                    self.segcache.note_splice()
                    if self._ev is not None:
                        self._ev.emit_t(
                            "splice", (current, spliced, terminated)
                        )
                    if terminated:
                        break
                    if next_current is not None:
                        current = next_current
                        continue
                    # Every spliced hop was private: fall through to
                    # the RR step from the pre-splice current hop.

            if not skip_rr:
                revealed, technique = self._rr_step(current)
            fresh = [addr for addr in revealed if addr not in seen]
            if fresh:
                terminated = False
                next_current: Optional[Address] = None
                adopted_before = len(hops)
                for addr in fresh:
                    hops.append(ReverseHop(addr, technique))
                    seen.add(addr)
                    if not is_private(addr):
                        next_current = addr
                    if self._is_terminal(addr):
                        hops.append(
                            ReverseHop(source, HopTechnique.SOURCE)
                        )
                        status = RevtrStatus.COMPLETE
                        terminated = True
                        break
                if self._ev is not None:
                    self._ev.emit_t(
                        "hops.adopted",
                        (
                            technique._value_,
                            tuple(
                                [
                                    hop.addr
                                    for hop in hops[adopted_before:]
                                    if hop.technique is technique
                                ]
                            ),
                        ),
                    )
                if terminated:
                    break
                if next_current is not None:
                    current = next_current
                    continue
                # Every fresh hop was private: fall through.

            if self.config.use_timestamp:
                adjacent = self._timestamp_step(current)
                if adjacent is not None and adjacent not in seen:
                    hops.append(
                        ReverseHop(adjacent, HopTechnique.TIMESTAMP)
                    )
                    seen.add(adjacent)
                    current = adjacent
                    continue

            outcome = self.symmetry.step(current)
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
                hops.append(ReverseHop(source, HopTechnique.SOURCE))
                status = RevtrStatus.COMPLETE
                break
            if (
                outcome.penultimate is None
                or outcome.penultimate in seen
            ):
                self._fallback("dead-end", hop=current)
                status = RevtrStatus.INCOMPLETE
                if (
                    self.config.recheck_unresponsive
                    and self.config.ping_check
                    and self.prober.ping(self.source, dst) is None
                ):
                    # The destination died mid-measurement: classify
                    # as UNRESPONSIVE while keeping every hop gathered
                    # before the stall (``result.hops`` is assigned
                    # after the loop, so the partial path and its
                    # probe accounting survive this break).
                    status = RevtrStatus.UNRESPONSIVE
                break
            if (
                self.config.symmetry is SymmetryPolicy.INTRADOMAIN_ONLY
                and outcome.link is not LinkType.INTRA
            ):
                self._fallback(
                    "aborted-interdomain",
                    outcome.link.value,
                    hop=current,
                    penultimate=outcome.penultimate,
                )
                status = RevtrStatus.ABORTED_INTERDOMAIN
                break
            self._fallback(
                "adopted",
                outcome.link.value,
                hop=current,
                penultimate=outcome.penultimate,
            )
            hops.append(
                ReverseHop(
                    outcome.penultimate,
                    HopTechnique.ASSUMED_SYMMETRY,
                    assumed_link=outcome.link.value,
                )
            )
            seen.add(outcome.penultimate)
            current = outcome.penultimate

        result.hops = hops
        result.status = (
            status if status is not None else RevtrStatus.INCOMPLETE
        )
        if (
            self.segcache is not None
            and result.status is RevtrStatus.COMPLETE
        ):
            self._segcache_store(hops, spliced_at)
        self._finish(result, start_time, counts_before)
        return result

    def _splice_full_path(
        self,
        dst: Address,
        result: ReverseTracerouteResult,
        start_time: float,
        counts_before: tuple,
    ) -> Optional[ReverseTracerouteResult]:
        """Serve a measurement entirely from the segment cache.

        When the cache holds an unbroken chain from *dst* all the way
        to the source, every hop of the reverse path was adopted by an
        earlier completed measurement inside the entry TTL — and that
        measurement already verified the destination's liveness.
        Re-running the ping check and the per-hop loop would re-derive
        the same path one cache hit at a time, so the whole path is
        spliced in one step for zero probes.  Any break in the chain —
        miss, negative entry, generation bump, TTL expiry, a loop, or
        a chain longer than the hop budget — returns None and the
        normal measurement loop (ping check included) takes over.
        """
        chain, _ = self.segcache.chain(
            dst, _MAX_PATH_HOPS - 1
        )
        if not chain or chain[-1].next_hop != self.source:
            return None
        hops: List[ReverseHop] = [
            ReverseHop(dst, HopTechnique.DESTINATION)
        ]
        for entry in chain[:-1]:
            hops.append(
                ReverseHop(
                    entry.next_hop,
                    entry.hop.technique,
                    assumed_link=entry.hop.assumed_link,
                )
            )
        hops.append(ReverseHop(self.source, HopTechnique.SOURCE))
        self.segcache.note_splice()
        if self._ev is not None:
            self._ev.emit_t(
                "splice", (dst, len(chain), True, True)
            )
        result.hops = hops
        result.status = RevtrStatus.COMPLETE
        self._finish(result, start_time, counts_before)
        return result

    def _finish(
        self,
        result: ReverseTracerouteResult,
        start_time: float,
        counts_before: tuple,
    ) -> None:
        clock = self.prober.clock
        result.duration = clock.now() - start_time
        result.probe_counts = self.prober.counter.delta(counts_before)
        if result.hops:
            result.flagged_as_path = flag_suspicious_links(
                result.addresses(), self.ip2as, self.relationships
            )
        status = result.status.value
        self._t_measurements[status] = (
            self._t_measurements.get(status, 0) + 1
        )
        # ``ReverseTracerouteResult.hops_by_technique``, inlined: the
        # method went when ``_finish`` began tallying by value.
        counts: Dict[HopTechnique, int] = {}
        for hop in result.hops:
            counts[hop.technique] = counts.get(hop.technique, 0) + 1
        for technique, n in counts.items():
            value = technique.value
            self._t_hops[value] = self._t_hops.get(value, 0) + n
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
