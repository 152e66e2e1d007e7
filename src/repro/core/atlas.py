"""The traceroute atlas (design question Q1).

A per-source collection of traceroutes from randomly selected
RIPE-Atlas-like vantage points toward the source, refreshed daily. A
reverse traceroute that reaches any hop of an atlas traceroute can be
completed by appending the traceroute's suffix (destination-based
routing, Insight 1.1). The replacement policy — keep traceroutes that
produced intersections, replace the rest with fresh random VPs — is
the "Random++" of Fig. 9b, which converges to near-optimal in about
five daily iterations.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.net.addr import Address
from repro.net.packet import TracerouteResult
from repro.probing.prober import Prober
from repro.probing.traceroute import paris_traceroute

#: Atlas traceroutes older than this are considered stale (paper:
#: daily refresh keeps stale intersections at 0.7%).
DEFAULT_STALENESS = 86_400.0


@dataclass(frozen=True)
class Intersection:
    """A hit in the atlas: hop *index* of the traceroute from *vp*."""

    vp: Address
    index: int
    timestamp: float


class TracerouteAtlas:
    """Per-source atlas of vantage-point-to-source traceroutes."""

    def __init__(
        self,
        source: Address,
        max_size: int = 1000,
        staleness: float = DEFAULT_STALENESS,
    ) -> None:
        self.source = source
        self.max_size = max_size
        self.staleness = staleness
        self.traceroutes: Dict[Address, TracerouteResult] = {}
        self._index: Dict[Address, List[Tuple[Address, int]]] = {}
        self._useful: Set[Address] = set()
        #: vp -> routing generation its trace was measured under; used
        #: by the generation-keyed incremental refresh.  Traces added
        #: without a generation always re-measure.
        self._generation: Dict[Address, int] = {}
        #: per-traceroute virtual-clock cost of the last build /
        #: refresh, in measurement order; consumed by the atlas
        #: pipeline's shard-lane accounting.
        self.last_build_durations: List[float] = []
        #: summary counters of the last :meth:`refresh` call.
        self.last_refresh: Dict[str, object] = {}

    # ------------------------------------------------------------------
    # Population
    # ------------------------------------------------------------------

    def add(
        self,
        trace: TracerouteResult,
        generation: Optional[int] = None,
    ) -> None:
        """Insert (or replace) the traceroute from ``trace.src``.

        *generation* stamps the routing generation the trace was
        measured under (see :meth:`refresh`); traces added without one
        are never eligible for the incremental-refresh skip.
        """
        if trace.dst != self.source:
            raise ValueError(
                f"traceroute to {trace.dst} does not target atlas "
                f"source {self.source}"
            )
        previous = self.traceroutes.get(trace.src)
        if previous is not None:
            self._unindex(previous)
        self.traceroutes[trace.src] = trace
        if generation is None:
            self._generation.pop(trace.src, None)
        else:
            self._generation[trace.src] = generation
        for index, hop in enumerate(trace.hops):
            if hop is None:
                continue
            self._index.setdefault(hop, []).append((trace.src, index))

    def _unindex(self, trace: TracerouteResult) -> None:
        for hop in trace.hops:
            if hop is None:
                continue
            entries = self._index.get(hop)
            if not entries:
                continue
            entries[:] = [e for e in entries if e[0] != trace.src]
            if not entries:
                del self._index[hop]

    def remove(self, vp: Address) -> None:
        trace = self.traceroutes.pop(vp, None)
        if trace is not None:
            self._unindex(trace)
        self._useful.discard(vp)
        self._generation.pop(vp, None)

    def generation_of(self, vp: Address) -> Optional[int]:
        """Routing generation *vp*'s trace was measured under."""
        return self._generation.get(vp)

    def build(
        self,
        prober: Prober,
        candidate_vps: Sequence[Address],
        rng: random.Random,
        size: Optional[int] = None,
    ) -> None:
        """Measure traceroutes from random candidate VPs (Q1)."""
        generation = prober.internet.routing_generation
        self.last_build_durations = []
        size = self.max_size if size is None else size
        chosen = list(candidate_vps)
        rng.shuffle(chosen)
        for vp in chosen[:size]:
            started = prober.clock.now()
            trace = paris_traceroute(prober, vp, self.source)
            self.last_build_durations.append(
                prober.clock.now() - started
            )
            if trace.responsive_hops():
                self.add(trace, generation=generation)

    def refresh(
        self,
        prober: Prober,
        candidate_vps: Sequence[Address],
        rng: random.Random,
        incremental: bool = False,
    ) -> int:
        """Daily Random++ refresh (Fig. 9b).

        Re-measures traceroutes that produced intersections since the
        last refresh and replaces the others with fresh random VPs.
        Returns the number of replaced traceroutes.

        With ``incremental=True``, a kept traceroute is re-measured
        only if it *could* have changed: the simulator's routing
        generation moved since it was measured, or it aged past the
        staleness budget.  Destination-based routing makes the skip
        sound — with announcements unchanged, re-measuring the same
        VP-to-source path returns the same hops.

        A kept VP whose re-measurement comes back fully unresponsive
        is removed (not silently retained stale), and the freed slot is
        topped up from the candidate pool like any other vacancy.
        """
        keep = set(self._useful)
        drop = [vp for vp in self.traceroutes if vp not in keep]
        unused_pool = [
            vp
            for vp in candidate_vps
            if vp not in self.traceroutes and vp not in keep
        ]
        rng.shuffle(unused_pool)
        generation = prober.internet.routing_generation
        replaced = 0
        remeasured = 0
        skipped = 0
        pruned = 0
        durations: List[float] = []
        for vp in drop:
            self.remove(vp)
        for vp in sorted(keep):
            trace = self.traceroutes.get(vp)
            if (
                incremental
                and trace is not None
                and self._generation.get(vp) == generation
                and prober.clock.now() - trace.timestamp
                < self.staleness
            ):
                skipped += 1
                continue
            started = prober.clock.now()
            fresh = paris_traceroute(prober, vp, self.source)
            durations.append(prober.clock.now() - started)
            remeasured += 1
            if fresh.responsive_hops():
                self.add(fresh, generation=generation)
            else:
                self.remove(vp)
                pruned += 1
        want = self.max_size - len(self.traceroutes)
        for vp in unused_pool[:want]:
            started = prober.clock.now()
            trace = paris_traceroute(prober, vp, self.source)
            durations.append(prober.clock.now() - started)
            if trace.responsive_hops():
                self.add(trace, generation=generation)
                replaced += 1
        self._useful.clear()
        self.last_build_durations = durations
        self.last_refresh = {
            "dropped": len(drop),
            "remeasured": remeasured,
            "skipped": skipped,
            "pruned_unresponsive": pruned,
            "replaced": replaced,
        }
        return replaced

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def lookup(self, addr: Address) -> Optional[Intersection]:
        """Find the freshest traceroute containing *addr*."""
        entries = self._index.get(addr)
        if not entries:
            return None
        best: Optional[Intersection] = None
        for vp, index in entries:
            trace = self.traceroutes[vp]
            candidate = Intersection(vp, index, trace.timestamp)
            if best is None or candidate.timestamp > best.timestamp:
                best = candidate
        return best

    def suffix(self, hit: Intersection) -> List[Address]:
        """Hops from just after the intersection to the source."""
        trace = self.traceroutes[hit.vp]
        return [
            hop for hop in trace.hops[hit.index + 1:] if hop is not None
        ]

    def mark_useful(self, vp: Address) -> None:
        """Record that *vp*'s traceroute served an intersection."""
        if vp in self.traceroutes:
            self._useful.add(vp)

    def is_stale(self, hit: Intersection, now: float) -> bool:
        return now - hit.timestamp > self.staleness

    def all_hops(self) -> List[Address]:
        """Every distinct responsive hop address in the atlas."""
        return list(self._index)

    def __len__(self) -> int:
        return len(self.traceroutes)

    def __contains__(self, addr: Address) -> bool:
        return addr in self._index
