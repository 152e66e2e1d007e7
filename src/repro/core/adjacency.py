"""Router adjacency database for the timestamp technique (Q4).

revtr 1.0 tested every adjacency of the current hop found in the iPlane
traceroute dataset with a tsprespec ping (Fig. 1e). We rebuild the
dataset the way the paper's comparison does (§5.2.1): from links seen
in a corpus of forward traceroutes ("the Ark traceroutes from the two
previous weeks"). revtr 2.0 does not use this at all — Insight 1.9 —
but the Table 4 / Fig. 5b ablations need it.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence, Set

from repro.net.addr import Address
from repro.net.packet import TracerouteResult
from repro.probing.prober import Prober
from repro.probing.traceroute import paris_traceroute


class AdjacencyDatabase:
    """Undirected address adjacencies harvested from traceroutes."""

    def __init__(self) -> None:
        self._adjacent: Dict[Address, Set[Address]] = {}
        self.traceroutes_ingested = 0

    def add_traceroute(self, trace: TracerouteResult) -> None:
        """Record every consecutive responsive hop pair as a link."""
        hops = [hop for hop in trace.hops if hop is not None]
        for left, right in zip(hops, hops[1:]):
            if left == right:
                continue
            self._adjacent.setdefault(left, set()).add(right)
            self._adjacent.setdefault(right, set()).add(left)
        self.traceroutes_ingested += 1

    def build_ark_style(
        self,
        prober: Prober,
        sources: Sequence[Address],
        destinations: Sequence[Address],
        n_traceroutes: int,
        rng: random.Random,
    ) -> None:
        """Collect an Ark-like corpus: random source/destination pairs."""
        for _ in range(n_traceroutes):
            src = rng.choice(sources)
            dst = rng.choice(destinations)
            if src == dst:
                continue
            self.add_traceroute(paris_traceroute(prober, src, dst))

    def neighbors(
        self,
        addr: Address,
        aliases: Optional[Sequence[Address]] = None,
        limit: Optional[int] = None,
    ) -> List[Address]:
        """Adjacencies of *addr* (and of its known aliases), sorted.

        These are the candidate next reverse hops tested via the IP
        timestamp option.
        """
        found: Set[Address] = set(self._adjacent.get(addr, ()))
        for alias in aliases or ():
            found |= self._adjacent.get(alias, set())
        found.discard(addr)
        for alias in aliases or ():
            found.discard(alias)
        ordered = sorted(found)
        return ordered[:limit] if limit is not None else ordered

    def __len__(self) -> int:
        return len(self._adjacent)

    def __contains__(self, addr: Address) -> bool:
        return addr in self._adjacent
