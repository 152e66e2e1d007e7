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
from typing import Dict, List, Optional, Sequence, Set, Tuple

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
        #: vp -> routing generation its trace was measured under, as
        #: a snapshot records it (no entry for traces added without one)
        self._generation: Dict[Address, int] = {}
        #: summary counters of the last :meth:`refresh` call.
        self.last_refresh: Dict[str, object] = {}
        #: a new token on every :meth:`add` / :meth:`remove`: a holder
        #: of this one knows the traceroutes have not changed since
        #: (the segment cache's remembered aborts rest on that)
        self.version = object()

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
        measured under, which :func:`repro.core.snapshot.save_snapshot`
        writes.
        """
        if trace.dst != self.source:
            raise ValueError(
                f"traceroute to {trace.dst} does not target atlas "
                f"source {self.source}"
            )
        self.version = object()
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
            self.version = object()
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
    ) -> None:
        """Measure traceroutes from up to ``max_size`` random candidate
        VPs (Q1)."""
        generation = prober.internet.routing_generation
        chosen = list(candidate_vps)
        rng.shuffle(chosen)
        for vp in chosen[: self.max_size]:
            trace = paris_traceroute(prober, vp, self.source)
            if trace.responsive_hops():
                self.add(trace, generation=generation)

    def refresh(
        self,
        prober: Prober,
        candidate_vps: Sequence[Address],
        rng: random.Random,
    ) -> int:
        """Daily Random++ refresh (Fig. 9b).

        Re-measures traceroutes that produced intersections since the
        last refresh and replaces the others with fresh random VPs.
        Returns the number of replaced traceroutes.

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
        pruned = 0
        for vp in drop:
            self.remove(vp)
        for vp in sorted(keep):
            fresh = paris_traceroute(prober, vp, self.source)
            if fresh.responsive_hops():
                self.add(fresh, generation=generation)
            else:
                self.remove(vp)
                pruned += 1
        want = self.max_size - len(self.traceroutes)
        for vp in unused_pool[:want]:
            trace = paris_traceroute(prober, vp, self.source)
            if trace.responsive_hops():
                self.add(trace, generation=generation)
                replaced += 1
        self._useful.clear()
        self.last_refresh = {
            "dropped": len(drop),
            "remeasured": len(keep),
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
