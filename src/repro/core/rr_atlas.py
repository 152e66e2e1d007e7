"""The RR atlas: a-priori intersection aliases (design question Q2).

Routers show traceroute one address (the ingress) and record route
another (the egress toward the source), so a reverse traceroute's
RR-discovered hops rarely string-match the traceroute atlas. Instead of
runtime alias resolution — slow, incomplete — revtr 2.0 probes every
atlas traceroute hop with a record-route ping toward the source
*offline*: the reply's reverse-path stamps are exactly the addresses a
later reverse traceroute will see, so each one is registered as an
intersection alias pointing into the atlas (Fig. 3).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.net.addr import Address, same_slash30, same_slash31, slash30_peer
from repro.core.atlas import Intersection, TracerouteAtlas
from repro.probing.budget import ProbeCounter
from repro.probing.prober import LOSS_TIMEOUT, Prober, RRPingResult


#: Spoofing VPs a hop's probe ladder tries after the direct RR ping.
MAX_SPOOFERS_PER_HOP = 2


@dataclass
class RRBuildStats:
    """Accounting for one :meth:`RRAtlas.build` call.

    A *unit* is one probe ladder — direct RR ping from the source,
    then up to ``MAX_SPOOFERS_PER_HOP`` spoofed retries — for one
    distinct hop address, however many traceroutes it occurs in.
    ``unit_costs`` holds each unit's virtual-clock cost in probing
    order, which is what the pipeline's shard lanes re-schedule.
    """

    occurrences: int = 0
    units: int = 0
    probes_sent: int = 0
    probes_deduped: int = 0
    unit_costs: List[float] = field(default_factory=list)


class RRAtlas:
    """Maps RR-visible addresses to atlas traceroute positions."""

    def __init__(self, atlas: TracerouteAtlas) -> None:
        self.atlas = atlas
        #: lookup outcomes; *stale* is an alias whose traceroute the
        #: atlas has since pruned (read by ``tests/test_atlas_pipeline.py``)
        self._obs_hits = 0
        self._obs_misses = 0
        self._obs_stale = 0
        #: RR-visible address -> (vp, traceroute index) it intersects at
        self._mapping: Dict[Address, Tuple[Address, int]] = {}
        self.probes_sent = 0
        #: probes *not* sent because a hop address recurring across
        #: atlas traceroutes was already probed this build
        self.probes_deduped = 0
        #: accounting for the most recent :meth:`build`
        self.last_build: RRBuildStats = RRBuildStats()

    # ------------------------------------------------------------------
    # Offline construction
    # ------------------------------------------------------------------

    def build(
        self,
        prober: Prober,
        spoofer_vps: Sequence[Address],
    ) -> None:
        """Probe every atlas hop with RR toward the source.

        Tries a direct RR ping from the source first; if the hop is out
        of range, retries spoofed as the source from a few VPs (Fig. 3's
        "from s or spoofing as s").

        Each distinct hop address is probed once per build even when it
        occurs in many VPs' traceroutes (the saved probes are tallied
        in :attr:`probes_deduped`), and whole retry rounds go through
        :meth:`Prober.rr_ping_batch`.  Forwarding outcomes are pure
        functions of each probe, so the ``_mapping`` equals what one
        ladder per occurrence, one :meth:`Prober.rr_ping` at a time,
        registers (``tests/helpers/reference_rr_atlas.py``).
        """
        source = self.atlas.source
        occurrences: List[
            Tuple[Address, int, Address, Sequence[Optional[Address]]]
        ] = []
        for vp, trace in self.atlas.traceroutes.items():
            for index, hop in enumerate(trace.hops):
                if hop is None or hop == source:
                    continue
                occurrences.append((vp, index, hop, trace.hops))
        spoofers = list(spoofer_vps[:MAX_SPOOFERS_PER_HOP])
        targets = list(dict.fromkeys(occ[2] for occ in occurrences))
        ladders = self._probe_ladders_batched(
            prober, source, targets, spoofers
        )

        stats = RRBuildStats(occurrences=len(occurrences))
        stats.units = len(ladders)
        for _, probes, cost in ladders:
            stats.probes_sent += probes
            stats.unit_costs.append(cost)
        by_hop = dict(zip(targets, ladders))
        # What a ladder per occurrence would have sent, minus what was.
        stats.probes_deduped = (
            sum(by_hop[occ[2]][1] for occ in occurrences)
            - stats.probes_sent
        )
        self.probes_sent += stats.probes_sent
        self.probes_deduped += stats.probes_deduped
        self.last_build = stats

        for vp, index, hop, trace_hops in occurrences:
            result = by_hop[hop][0]
            if result is not None and self._usable(result):
                self._register(result, vp, index, trace_hops)

    def _probe_ladders_batched(
        self,
        prober: Prober,
        source: Address,
        targets: Sequence[Address],
        spoofers: Sequence[Address],
    ) -> List[Tuple[Optional[RRPingResult], int, float]]:
        """Retry rounds through the batch walker.

        Round 0 probes every target directly from the source; round
        ``k`` retries the still-unusable remainder spoofed as the
        source from the k-th spoofer — each target's own ladder,
        probed a round at a time so destination resolution is shared
        and the Python-level per-probe overhead amortised.
        """
        states: List[List] = [[None, 0, 0.0] for _ in targets]
        pending = list(range(len(targets)))
        for vp in [None] + list(spoofers):
            if not pending:
                break
            if vp is None:
                items = [(source, targets[i], None) for i in pending]
            else:
                items = [(vp, targets[i], source) for i in pending]
            results = prober.rr_ping_batch(items)
            still = []
            for i, result in zip(pending, results):
                state = states[i]
                state[0] = result
                state[1] += 1
                state[2] += (
                    result.rtt if result.responded else LOSS_TIMEOUT
                )
                if not self._usable(result):
                    still.append(i)
            pending = still
        return [tuple(state) for state in states]

    @staticmethod
    def _usable(result: RRPingResult) -> bool:
        return result.responded and result.destination_stamp_index() is not None

    def _register(
        self,
        result: RRPingResult,
        vp: Address,
        hop_index: int,
        trace_hops: Sequence[Optional[Address]],
    ) -> None:
        """Register the reply's reverse-path stamps as aliases.

        Attribution must never be too shallow: intersecting at an
        earlier position than the alias's real router would prepend
        hops the reverse path never visits (a wrong path), whereas a
        too-deep attribution only shortens the copied suffix. So an
        alias is registered only when its position is *certain*:

        * the probed hop's own stamp (the reply's first entry) belongs
          to the probed position;
        * other revealed addresses are registered only when they align
          with a specific later traceroute hop (same address, /31, or
          the two ends of a /30) — non-stamping routers make purely
          positional attribution unsound.
        """
        stamp_index = result.destination_stamp_index()
        assert stamp_index is not None
        revealed = [result.slots[stamp_index]] + result.reverse_hops()
        last_index = len(trace_hops) - 1
        for offset, addr in enumerate(revealed):
            position: Optional[int] = hop_index if offset == 0 else None
            for later in range(last_index, hop_index, -1):
                hop = trace_hops[later]
                if hop is None:
                    continue
                if (
                    addr == hop
                    or same_slash31(addr, hop)
                    or (
                        same_slash30(addr, hop)
                        and slash30_peer(addr) == hop
                    )
                ):
                    position = later
                    break
            if position is None:
                continue
            existing = self._mapping.get(addr)
            if existing is None or position > existing[1]:
                self._mapping[addr] = (vp, position)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def lookup(self, addr: Address) -> Optional[Intersection]:
        """Intersection for an RR-visible alias, if registered."""
        entry = self._mapping.get(addr)
        if entry is None:
            self._obs_misses += 1
            return None
        vp, index = entry
        trace = self.atlas.traceroutes.get(vp)
        if trace is None:
            # The alias points into a traceroute the atlas has since
            # pruned (Random++ replacement): no usable intersection, so
            # it must not count as a hit.
            self._obs_stale += 1
            return None
        self._obs_hits += 1
        return Intersection(vp, index, trace.timestamp)

    def known_aliases(self) -> List[Address]:
        return list(self._mapping)

    def __len__(self) -> int:
        return len(self._mapping)

    def __contains__(self, addr: Address) -> bool:
        return addr in self._mapping
