"""A bdrmapit-like offline border-router ownership refinement.

bdrmapIT (Marder et al.) infers which AS *operates* a border router,
correcting the naive prefix-origin mapping for interdomain links
numbered from the neighbour's space. The paper evaluates — and
ultimately declines to deploy — bdrmapit because it is an offline tool
that takes ~30 minutes on the traceroute atlas (Appendix B.2). This
module reproduces the core inference (majority vote over traceroute
successors), so the Appendix B.2 comparison can be re-run; the runtime
that kept it out of the deployment is not modelled.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from typing import Dict, Iterable, List, Optional

from repro.net.addr import Address
from repro.net.packet import TracerouteResult
from repro.asmap.ip2as import IPToASMapper

#: Share of an address's observed successors that must sit in one other
#: AS before the address is handed to it.
_MAJORITY_THRESHOLD = 0.75

#: Observed successors an address needs before it is voted on at all.
_MIN_OBSERVATIONS = 2


class BdrmapitLite:
    """Majority-vote border ownership inference over traceroutes."""

    def __init__(self, base: IPToASMapper) -> None:
        self.base = base

    def infer(
        self, traceroutes: Iterable[TracerouteResult]
    ) -> Dict[Address, int]:
        """Return per-address AS overrides inferred from traceroutes.

        The heuristic mirrors bdrmapit's core signal: if an address's
        prefix-origin AS differs from the AS of the hops that
        consistently *follow* it in traceroutes, the router is operated
        by the downstream AS — the interdomain interface was numbered
        from the upstream's space.
        """
        successors: Dict[Address, Counter] = defaultdict(Counter)
        for trace in traceroutes:
            hops: List[Optional[Address]] = list(trace.hops)
            for here, nxt in zip(hops, hops[1:]):
                if here is None or nxt is None:
                    continue
                next_asn = self.base.asn(nxt)
                if next_asn is not None:
                    successors[here][next_asn] += 1

        overrides: Dict[Address, int] = {}
        for addr, counts in successors.items():
            own = self.base.asn(addr)
            if own is None:
                continue
            total = sum(counts.values())
            if total < _MIN_OBSERVATIONS:
                continue
            winner, hits = counts.most_common(1)[0]
            if winner == own:
                continue
            if hits / total >= _MAJORITY_THRESHOLD:
                overrides[addr] = winner
        return overrides
