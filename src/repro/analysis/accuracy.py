"""Accuracy comparison against direct traceroutes (§5.2.2, Fig. 5a).

A reverse traceroute is compared to a direct traceroute measured from
the destination to the source — the closest thing to ground truth the
deployed system has, with all the caveats the paper walks through:
routers answer traceroute and RR with different addresses, alias data
is incomplete, and load balancing produces multiple valid paths. The
comparison therefore reports *four* numbers per pair, matching the
four line families of Fig. 5a: router-level, router-level optimistic
(unresolvable hops counted as matches), AS-level fraction, and exact
AS-path agreement.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.alias.resolver import AliasResolver
from repro.asmap.ip2as import IPToASMapper
from repro.net.addr import Address


@dataclass
class PathComparison:
    """Per-pair accuracy metrics."""

    #: fraction of direct-traceroute router hops also seen in the
    #: reverse traceroute (alias-resolution best effort)
    router_fraction: float
    #: same, counting unresolvable direct hops as matches (the upper
    #: bound of Fig. 5a's shaded region)
    router_fraction_optimistic: float
    #: the two AS paths are identical
    as_exact: bool
    #: reverse AS path is a subsequence of the direct one: incomplete
    #: (missing hops) rather than wrong (§5.2.2's 6.1%)
    as_missing_only: bool
    #: the *direct traceroute* is a subsequence of the reverse path:
    #: the traceroute missed an AS (ingress numbered from the
    #: neighbour's space hides single-router transits) while the
    #: reverse path has it — the paper's discrepancy case (4), "the
    #: direct traceroute is wrong"
    as_direct_incomplete: bool

    @property
    def as_correct(self) -> bool:
        """No wrong AS on the reverse path: exact match, or one side
        merely incomplete."""
        return self.as_exact or self.as_missing_only or (
            self.as_direct_incomplete
        )


def _is_subsequence(short: Sequence, long: Sequence) -> bool:
    iterator = iter(long)
    return all(item in iterator for item in short)


def compare_paths(
    reverse_addrs: Sequence[Address],
    direct_hops: Sequence[Optional[Address]],
    resolver: AliasResolver,
    ip2as: IPToASMapper,
) -> Optional[PathComparison]:
    """Compare a reverse traceroute to the direct traceroute.

    ``reverse_addrs``: hop addresses of the reverse traceroute
    (destination first, source last). ``direct_hops``: the direct
    traceroute's hops (may contain None). Returns None if the direct
    traceroute has no usable router hops.
    """
    direct = [hop for hop in direct_hops if hop is not None]
    if len(direct) < 2:
        return None
    # Drop the destination echo at the end of the direct traceroute
    # (it is the source address, present in every complete revtr) and
    # compare router hops only.
    routers = direct[:-1]
    if not routers:
        return None

    matched = 0
    optimistic = 0
    for hop in routers:
        hit = any(resolver.aligned(addr, hop) for addr in reverse_addrs)
        if hit:
            matched += 1
            optimistic += 1
        elif not resolver.can_resolve(hop):
            # No alias evidence for this hop: it *could* be one of the
            # reverse traceroute's unmatched addresses.
            optimistic += 1

    direct_as = ip2as.collapsed_as_path(direct)
    reverse_as = ip2as.collapsed_as_path(reverse_addrs)
    as_exact = bool(direct_as) and reverse_as == direct_as
    as_missing_only = (
        not as_exact
        and bool(reverse_as)
        and _is_subsequence(reverse_as, direct_as)
    )
    as_direct_incomplete = (
        not as_exact
        and not as_missing_only
        and bool(direct_as)
        and _is_subsequence(direct_as, reverse_as)
    )

    return PathComparison(
        router_fraction=matched / len(routers),
        router_fraction_optimistic=optimistic / len(routers),
        as_exact=as_exact,
        as_missing_only=as_missing_only,
        as_direct_incomplete=as_direct_incomplete,
    )
