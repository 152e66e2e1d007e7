"""Path-asymmetry metrics (§6.2, Figs. 8, 12, 13, 14, Table 7).

The paper quantifies symmetry as *the fraction of hops on the forward
traceroute that are also on the reverse traceroute* — deliberately not
an edit distance (Appendix G.3 discusses the difference from
de Vries et al.). These helpers compute that fraction at router
granularity, the AS-level symmetry predicate, the per-AS asymmetry
prevalence for the customer-cone scatter, and the positional symmetry
profile.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.alias.resolver import AliasResolver
from repro.net.addr import Address


def hop_symmetry_fraction(
    forward_hops: Sequence[Optional[Address]],
    reverse_addrs: Sequence[Address],
    resolver: AliasResolver,
) -> Optional[float]:
    """Router-level symmetry: fraction of forward hops on the reverse
    path (alias-resolution best effort)."""
    hops = [h for h in forward_hops if h is not None]
    if len(hops) < 2:
        return None
    routers = hops[:-1]
    if not routers:
        return None
    matched = sum(
        1
        for hop in routers
        if any(resolver.aligned(addr, hop) for addr in reverse_addrs)
    )
    return matched / len(routers)


def is_symmetric_pair(
    forward_as: Sequence[int], reverse_as: Sequence[int]
) -> bool:
    """The paper's symmetry predicate: every forward hop is on the
    reverse path (§6.2; deliberately weaker than sequence equality —
    Appendix G.3 discusses how this *underestimates* asymmetry
    relative to edit-distance definitions)."""
    if not forward_as:
        return False
    reverse = set(reverse_as)
    return all(asn in reverse for asn in forward_as)


@dataclass
class AsymmetryPrevalence:
    """Per-AS involvement in asymmetric routing (Fig. 8b, Table 7)."""

    #: asn -> number of asymmetric measurements whose asymmetry
    #: (symmetric difference of the two AS paths) includes the AS
    involved: Dict[int, int]
    total_asymmetric: int

    def prevalence(self, asn: int) -> float:
        if self.total_asymmetric == 0:
            return 0.0
        return self.involved.get(asn, 0) / self.total_asymmetric


def asymmetry_prevalence(
    pairs: Sequence[Tuple[Sequence[int], Sequence[int]]],
) -> AsymmetryPrevalence:
    """Compute per-AS asymmetry involvement over (fwd, rev) AS paths."""
    involved: Dict[int, int] = defaultdict(int)
    total_asymmetric = 0
    for forward_as, reverse_as in pairs:
        fwd, rev = set(forward_as), set(reverse_as)
        difference = fwd ^ rev
        if not difference:
            continue
        total_asymmetric += 1
        for asn in difference:
            involved[asn] += 1
    return AsymmetryPrevalence(dict(involved), total_asymmetric)


def positional_symmetry(
    pairs: Sequence[Tuple[Sequence[int], Sequence[int]]],
    path_length: int,
) -> List[float]:
    """P(hop also on reverse path) per forward AS-path position, over
    pairs whose forward path has exactly *path_length* AS hops
    (Fig. 14)."""
    hits = [0] * path_length
    totals = 0
    for forward_as, reverse_as in pairs:
        if len(forward_as) != path_length:
            continue
        totals += 1
        rev = set(reverse_as)
        for index, asn in enumerate(forward_as):
            if asn in rev:
                hits[index] += 1
    if totals == 0:
        return []
    return [count / totals for count in hits]


def path_length_distribution(
    pairs: Sequence[Tuple[Sequence[int], Sequence[int]]],
    symmetric: Optional[bool] = None,
    through_asns: Optional[set] = None,
) -> List[int]:
    """Forward AS-path lengths, optionally filtered to (a)symmetric
    pairs and to paths traversing any of *through_asns* (Fig. 13)."""
    lengths: List[int] = []
    for forward_as, reverse_as in pairs:
        if symmetric is not None:
            if is_symmetric_pair(forward_as, reverse_as) != symmetric:
                continue
        if through_asns is not None and not (
            set(forward_as) & through_asns
        ):
            continue
        lengths.append(len(forward_as))
    return lengths
