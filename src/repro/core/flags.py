"""Suspicious-link flagging (§5.2.2).

Reverse traceroutes can silently miss hops — routers that stamp RR
packets with private addresses or forward without stamping. revtr 2.0
flags both cases in the AS-level path *without access to the forward
traceroute*:

* a private/unmappable hop between two AS segments becomes a ``"*"``;
* an AS link between a small AS and a provider-of-its-provider with no
  known direct relationship is the signature of a skipped AS and gets a
  ``"*"`` inserted between the two hops.

In the paper 10% of reverse traceroutes carry a flag; of the remainder,
98.3% are correct and complete at the AS level.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Union

from repro.asmap.ip2as import IPToASMapper
from repro.asmap.relationships import ASRelationships
from repro.net.addr import Address

#: The flag marker inserted into AS paths.
STAR = "*"

ASPathEntry = Union[int, str]


def flag_suspicious_links(
    hops: Sequence[Optional[Address]],
    ip2as: IPToASMapper,
    relationships: ASRelationships,
) -> List[ASPathEntry]:
    """Translate hop addresses to a flagged AS path.

    Returns the collapsed AS-level path with ``"*"`` markers where a
    hop is likely missing.
    """
    # Per-hop AS with None for unmappable (private / unknown).
    asn_of = ip2as.asn
    per_hop = [asn_of(hop) for hop in hops]

    flagged: List[ASPathEntry] = []
    pending_star = False
    for asn in per_hop:
        if asn is None:
            # Unmappable hop: flag, unless at the very edge of the path.
            if flagged:
                pending_star = True
            continue
        if flagged and flagged[-1] == asn:
            pending_star = False
            continue
        if pending_star:
            flagged.append(STAR)
            pending_star = False
        flagged.append(asn)

    # Insert stars at suspicious AS links (possible unstamping router);
    # suspicious in either direction, since the path may run either way.
    suspicious = relationships.is_suspicious_link
    result: List[ASPathEntry] = []
    previous_asn: Optional[int] = None
    for entry in flagged:
        if isinstance(entry, int) and previous_asn is not None:
            if suspicious(previous_asn, entry) or suspicious(
                entry, previous_asn
            ):
                result.append(STAR)
        result.append(entry)
        if isinstance(entry, int):
            previous_asn = entry
        else:
            previous_asn = None
    return result
