"""The prober: issues measurement packets and accounts for them.

Every probe the system sends flows through one :class:`Prober`, which
charges the probe to a :class:`~repro.probing.budget.ProbeCounter`,
enforces the paper's 100 pps per-vantage-point limit, and advances the
virtual clock: direct probes cost their RTT, lost probes cost a small
timeout, and *spoofed batches cost the full 10-second receive timeout*
(Section 5.2.4) because the receiver cannot know how many spoofed
replies to expect.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.net.addr import Address
from repro.net.options import RecordRouteOption, TimestampOption
from repro.net.packet import EchoReply, Probe, ProbeKind
from repro.obs.instrument import NULL
from repro.probing.budget import ProbeCounter
from repro.probing.ratelimit import TokenBucket
from repro.sim.clock import VirtualClock
from repro.sim.network import Internet

#: Receive timeout for a batch of spoofed probes (paper: 10 s).
SPOOF_BATCH_TIMEOUT = 10.0
#: Timeout charged when a direct probe gets no reply.
LOSS_TIMEOUT = 0.5


@dataclass
class RRPingResult:
    """Outcome of one record-route ping."""

    dst: Address
    vp: Address
    spoofed_as: Optional[Address]
    responded: bool
    slots: List[Address] = field(default_factory=list)
    rtt: float = 0.0

    def destination_stamp_index(
        self, use_double_stamp: bool = True
    ) -> Optional[int]:
        """Index of the probed destination's own stamp, if visible.

        With ``use_double_stamp`` (the default), falls back to the
        Appendix C heuristic: an address stamped twice in adjacent
        slots marks the turnaround point when the destination stamped
        an alias or the penultimate hop stamped in both directions.
        """
        try:
            return self.slots.index(self.dst)
        except ValueError:
            pass
        if use_double_stamp:
            for index in range(len(self.slots) - 1):
                if self.slots[index] == self.slots[index + 1]:
                    return index + 1
        return None

    def reverse_hops(self) -> List[Address]:
        """Hops recorded after the destination's stamp (Fig. 1c)."""
        index = self.destination_stamp_index()
        if index is None:
            return []
        return self.slots[index + 1:]

    def forward_hops(self) -> List[Address]:
        index = self.destination_stamp_index()
        if index is None:
            return list(self.slots)
        return self.slots[:index]

    def distance(self) -> Optional[int]:
        """RR-hop distance of the destination from the vantage point.

        This is the 1-based slot position of the destination's stamp —
        the quantity Fig. 11 plots. None if the destination's stamp is
        not identifiable (out of range or non-stamping).
        """
        index = self.destination_stamp_index()
        return None if index is None else index + 1

    def in_range(self) -> bool:
        """Destination reached with at least one slot left for reverse
        hops (the paper's "within 8 hops")."""
        distance = self.distance()
        return distance is not None and distance <= 8


@dataclass
class TSPingResult:
    """Outcome of one tsprespec ping testing ⟨hop, adjacency⟩."""

    dst: Address
    adjacency: Address
    responded: bool
    hop_stamped: bool = False
    adjacency_stamped: bool = False

    @property
    def adjacency_on_reverse_path(self) -> bool:
        return self.hop_stamped and self.adjacency_stamped


class Prober:
    """Issues probes over an :class:`Internet` with full accounting."""

    def __init__(
        self,
        internet: Internet,
        clock: Optional[VirtualClock] = None,
        counter: Optional[ProbeCounter] = None,
        vp_rate_pps: float = 100.0,
        instrumentation=None,
    ) -> None:
        self.internet = internet
        self.clock = clock if clock is not None else VirtualClock()
        self.counter = counter if counter is not None else ProbeCounter()
        self.vp_rate_pps = vp_rate_pps
        #: observability sink; probe counts are mirrored into the
        #: ``probes_sent_total`` metric alongside the ProbeCounter
        self.obs = instrumentation if instrumentation is not None else NULL
        self._buckets: Dict[Address, TokenBucket] = {}
        #: optional :class:`~repro.probing.vantage.VPHealthTracker`;
        #: when installed, spoofed-batch outcomes feed its quarantine
        #: accounting (``None`` = no liveness tracking, zero overhead)
        self.health = None
        if self.obs.enabled:
            self._on_obs_attached(self.obs)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _bucket(self, vp: Address) -> TokenBucket:
        bucket = self._buckets.get(vp)
        if bucket is None:
            bucket = TokenBucket(
                self.clock, self.vp_rate_pps, burst=self.vp_rate_pps
            )
            self._buckets[vp] = bucket
        return bucket

    def _on_obs_attached(self, instrumentation) -> None:
        """Mirror the ProbeCounter into ``probes_sent_total`` on pull.

        The counter already tallies every probe by kind, so the hot
        path pays nothing extra; the metric materialises at snapshot
        time (summed across probers sharing one instrumentation).
        """
        if instrumentation.enabled:
            instrumentation.register_collect_source(self._obs_collect)

    def _obs_collect(self) -> Dict:
        return {
            ("probes_sent_total", (("kind", kind.value),)): float(n)
            for kind, n in self.counter.counts.items()
        }

    def _charge(self, vp: Address, kind: ProbeKind) -> None:
        self._bucket(vp).acquire(1)
        self.counter.record(kind)

    # ------------------------------------------------------------------
    # Probe primitives
    # ------------------------------------------------------------------

    def ping(self, src: Address, dst: Address) -> Optional[EchoReply]:
        """Plain ICMP echo from *src* to *dst*."""
        self._charge(src, ProbeKind.PING)
        outcome = self.internet.send_probe(Probe(src=src, dst=dst))
        if outcome.echo is None:
            self.clock.advance(LOSS_TIMEOUT)
            return None
        self.clock.advance(outcome.echo.rtt)
        return outcome.echo

    def rr_ping(
        self,
        vp: Address,
        dst: Address,
        spoof_as: Optional[Address] = None,
        advance_clock: bool = True,
    ) -> RRPingResult:
        """Record-route ping; spoofed when *spoof_as* is given.

        For spoofed probes the reply arrives at ``spoof_as``; call
        within :meth:`spoofed_rr_batch` for correct batch timing, or
        pass ``advance_clock=False`` and manage time at the call site.
        """
        spoofed = spoof_as is not None and spoof_as != vp
        kind = (
            ProbeKind.SPOOFED_RECORD_ROUTE
            if spoofed
            else ProbeKind.RECORD_ROUTE
        )
        self._charge(vp, kind)
        src = spoof_as if spoofed else vp
        probe = Probe(
            src=src,
            dst=dst,
            kind=kind,
            injected_at=vp,
            record_route=RecordRouteOption(),
        )
        outcome = self.internet.send_probe(probe)
        result = RRPingResult(
            dst=dst,
            vp=vp,
            spoofed_as=spoof_as if spoofed else None,
            responded=outcome.echo is not None,
        )
        if outcome.echo is not None:
            result.slots = list(outcome.echo.rr_slots)
            result.rtt = outcome.echo.rtt
        if advance_clock:
            self.clock.advance(
                result.rtt if result.responded else LOSS_TIMEOUT
            )
        return result

    def rr_ping_batch(
        self,
        items: Sequence[Tuple[Address, Address, Optional[Address]]],
    ) -> List[RRPingResult]:
        """Record-route pings over the batch walker, loop-identical.

        *items* is a sequence of ``(vp, dst, spoof_as)`` triples
        (``spoof_as=None`` for direct probes).  The probes are walked
        through :meth:`Internet.send_probe_batch` — destination
        resolution and announcement lookup are shared per distinct
        destination — and then charged and clock-advanced per probe in
        item order.  Because forwarding outcomes are pure functions of
        each packet and walks never read the clock, the results, the
        rate-limiter token dynamics, and the final virtual-clock
        reading are all byte-identical to an equivalent loop of
        :meth:`rr_ping` calls; only wall-clock time shrinks.
        """
        probes = []
        metas = []
        for vp, dst, spoof_as in items:
            spoofed = spoof_as is not None and spoof_as != vp
            kind = (
                ProbeKind.SPOOFED_RECORD_ROUTE
                if spoofed
                else ProbeKind.RECORD_ROUTE
            )
            probes.append(
                Probe(
                    src=spoof_as if spoofed else vp,
                    dst=dst,
                    kind=kind,
                    injected_at=vp,
                    record_route=RecordRouteOption(),
                )
            )
            metas.append((vp, dst, spoof_as if spoofed else None, kind))
        outcomes = self.internet.send_probe_batch(probes)
        results = []
        for (vp, dst, spoofed_as, kind), outcome in zip(metas, outcomes):
            self._charge(vp, kind)
            result = RRPingResult(
                dst=dst,
                vp=vp,
                spoofed_as=spoofed_as,
                responded=outcome.echo is not None,
            )
            if outcome.echo is not None:
                result.slots = list(outcome.echo.rr_slots)
                result.rtt = outcome.echo.rtt
            self.clock.advance(
                result.rtt if result.responded else LOSS_TIMEOUT
            )
            results.append(result)
        return results

    def spoofed_rr_batch(
        self,
        vps: Sequence[Address],
        dst: Address,
        spoof_as: Address,
    ) -> List[RRPingResult]:
        """Spoofed RR pings from several VPs; costs one batch timeout.

        The batch is the unit of revtr latency (§5.2.4): replies land at
        the spoofed source and the system waits the full timeout since
        it cannot know how many will arrive.

        All probes in the batch share one destination, so they are
        handed to :meth:`Internet.send_probe_batch`, which resolves the
        destination once and reuses it across the whole VP fleet.
        """
        probes = []
        metas = []
        for vp in vps:
            spoofed = spoof_as is not None and spoof_as != vp
            kind = (
                ProbeKind.SPOOFED_RECORD_ROUTE
                if spoofed
                else ProbeKind.RECORD_ROUTE
            )
            self._charge(vp, kind)
            probes.append(
                Probe(
                    src=spoof_as if spoofed else vp,
                    dst=dst,
                    kind=kind,
                    injected_at=vp,
                    record_route=RecordRouteOption(),
                )
            )
            metas.append((vp, spoof_as if spoofed else None))
        outcomes = self.internet.send_probe_batch(probes)
        results = []
        for (vp, spoofed_as), outcome in zip(metas, outcomes):
            result = RRPingResult(
                dst=dst,
                vp=vp,
                spoofed_as=spoofed_as,
                responded=outcome.echo is not None,
            )
            if outcome.echo is not None:
                result.slots = list(outcome.echo.rr_slots)
                result.rtt = outcome.echo.rtt
            results.append(result)
        self.clock.advance(SPOOF_BATCH_TIMEOUT)
        if self.health is not None:
            for result in results:
                self.health.record(result.vp, result.responded)
        return results

    def ts_ping(
        self,
        vp: Address,
        dst: Address,
        prespec: Sequence[Address],
        spoof_as: Optional[Address] = None,
        advance_clock: bool = True,
    ) -> TSPingResult:
        """tsprespec ping testing whether an adjacency is on the
        reverse path (Fig. 1e). ``prespec`` is ⟨hop, adjacency⟩."""
        if len(prespec) < 2:
            raise ValueError("prespec needs at least ⟨hop, adjacency⟩")
        spoofed = spoof_as is not None and spoof_as != vp
        kind = (
            ProbeKind.SPOOFED_TIMESTAMP if spoofed else ProbeKind.TIMESTAMP
        )
        self._charge(vp, kind)
        src = spoof_as if spoofed else vp
        option = TimestampOption.prespec(list(prespec))
        probe = Probe(
            src=src,
            dst=dst,
            kind=kind,
            injected_at=vp,
            timestamp=option,
        )
        outcome = self.internet.send_probe(probe)
        result = TSPingResult(
            dst=dst,
            adjacency=prespec[1],
            responded=outcome.echo is not None,
        )
        if outcome.echo is not None and outcome.echo.timestamp is not None:
            stamped = outcome.echo.timestamp.stamped
            result.hop_stamped = stamped[0] is not None
            result.adjacency_stamped = (
                len(stamped) > 1 and stamped[1] is not None
            )
        if advance_clock:
            self.clock.advance(
                outcome.echo.rtt if outcome.echo else LOSS_TIMEOUT
            )
        return result

    def snmpv3_probe(self, addr: Address) -> Optional[str]:
        """Unsolicited SNMPv3 request; returns the engine id, if any.

        Reproduces the fingerprinting technique of Albakour et al. that
        the paper uses for reliable alias ground truth (§4.4).
        """
        self.counter.record(ProbeKind.SNMP)
        router = self.internet.router_of(addr)
        if router is None:
            return None
        return router.snmpv3_engine_id()
