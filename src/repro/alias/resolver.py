"""Combined alias resolver (Appendix B.1).

Layers the available evidence, cheapest first:

1. exact address equality;
2. the ITDK-like offline dataset (MIDAR-derived, partial coverage);
3. the /30-/31 point-to-point heuristic: an RR hop followed by a
   traceroute hop in the same tiny subnet is the two ends of one link,
   so the two addresses *align* the RR and traceroute views;
4. alias sets measured live, merged in with :meth:`add_group`.

`can_resolve` reports whether *any* alias evidence exists for an
address — the distinction that produces the "router level optimistic"
band in Fig. 5a.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Set

from repro.net.addr import (
    Address,
    addr_to_int,
    same_slash30,
    same_slash31,
    slash30_peer,
)


class AliasResolver:
    """Decides whether two measured addresses belong to one router."""

    def __init__(
        self,
        itdk: Optional[Dict[Address, int]] = None,
    ) -> None:
        self.itdk = dict(itdk or {})
        self._extra: Dict[Address, int] = {}
        #: bumped by :meth:`add_group`, the one mutation that can change
        #: an address's :meth:`align_keys`; holders of derived key sets
        #: compare it and rebuild on mismatch
        self.version = 0
        self._next_group = -1  # extra ids count down, never reused

    def add_group(self, group: Set[Address]) -> None:
        """Merge a freshly measured alias set (e.g. from live MIDAR)."""
        for addr in group:
            self._extra[addr] = self._next_group
        self._next_group -= 1
        self.version += 1

    # ------------------------------------------------------------------

    def same_router(self, a: Address, b: Address) -> bool:
        """Best-effort judgement that *a* and *b* are one router."""
        if a == b:
            return True
        itdk_a, itdk_b = self.itdk.get(a), self.itdk.get(b)
        if itdk_a is not None and itdk_a == itdk_b:
            return True
        extra_a, extra_b = self._extra.get(a), self._extra.get(b)
        if extra_a is not None and extra_a == extra_b:
            return True
        return False

    def aligned(self, rr_hop: Address, traceroute_hop: Address) -> bool:
        """RR/traceroute view alignment: same router *or* the two ends
        of one point-to-point link (Appendix B.1's /30-/31 rule)."""
        if self.same_router(rr_hop, traceroute_hop):
            return True
        if same_slash31(rr_hop, traceroute_hop):
            return True
        if same_slash30(rr_hop, traceroute_hop):
            # Only the two usable hosts of a /30 form a link.
            return slash30_peer(rr_hop) == traceroute_hop
        return False

    def align_keys(self, addr: Address) -> Set[object]:
        """The keys *addr* aligns under: ``aligned(a, b)`` holds exactly
        when ``align_keys(a)`` and ``align_keys(b)`` intersect.

        One key per line of evidence :meth:`aligned` weighs — the
        address itself, its ITDK group, its extra group, its /31 and,
        for the two usable hosts of a /30 only, its /30 — so a set of
        addresses can be tested against with one ``isdisjoint`` over
        the union of their keys instead of one :meth:`aligned` call
        per member.
        """
        keys: Set[object] = {addr}
        group = self.itdk.get(addr)
        if group is not None:
            keys.add(("itdk", group))
        group = self._extra.get(addr)
        if group is not None:
            keys.add(("extra", group))
        value = addr_to_int(addr)
        keys.add(("31", value >> 1))
        if value & 0x3 in (1, 2):
            keys.add(("30", value >> 2))
        return keys

    def can_resolve(self, addr: Address) -> bool:
        """Whether any alias evidence exists for *addr*.

        Addresses with no evidence are the "do not allow for alias
        resolution" population of §5.2.2 (75-81% of mismatched hops).
        """
        return addr in self.itdk or addr in self._extra

    def group_of(self, addr: Address) -> Optional[int]:
        group = self.itdk.get(addr)
        if group is not None:
            return group
        return self._extra.get(addr)

    def matches_any(
        self, addr: Address, candidates: Sequence[Address]
    ) -> bool:
        return any(self.aligned(addr, c) for c in candidates)
