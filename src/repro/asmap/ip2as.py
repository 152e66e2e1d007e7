"""Longest-prefix IP-to-AS mapping from announced prefixes.

This is the measurement system's view of address ownership, built the
way the paper builds it (Appendix B.2, following Arnold et al.): from
public routing data — here, the set of announced prefixes and their
origin ASes. It is *deliberately imperfect in the same way reality is*:
an interdomain /30 numbered from the neighbour's space maps to the
neighbour's AS even though the router is operated by the other side
(Fig. 4's X1), and RFC 1918 addresses map to nothing.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence

from repro.net.addr import Address, PrefixTable, is_private
from repro.sim.network import Internet


class IPToASMapper:
    """Maps addresses to origin ASes via announced prefixes."""

    def __init__(self, internet: Internet) -> None:
        self._table = PrefixTable()
        for prefix, info in internet.prefixes.items():
            self._table.insert(prefix, info.origin_asn)
        self._overrides: Dict[Address, int] = {}
        #: address -> :meth:`asn` answer.  The prefix table never
        #: changes after construction, so only :meth:`apply_overrides`
        #: and :meth:`clear_overrides` can change an answer; both drop
        #: the memo.
        self._asn: Dict[Optional[Address], Optional[int]] = {}

    def asn(self, addr: Optional[Address]) -> Optional[int]:
        """AS of *addr*, or None (private, unknown, or a ``*`` hop)."""
        try:
            return self._asn[addr]
        except KeyError:
            pass
        if addr is None or is_private(addr):
            result = None
        else:
            result = self._overrides.get(addr)
            if result is None:
                result = self._table.lookup(addr)
        self._asn[addr] = result
        return result  # type: ignore[return-value]

    def apply_overrides(self, overrides: Dict[Address, int]) -> None:
        """Install per-address corrections (e.g. from bdrmapit)."""
        self._overrides.update(overrides)
        self._asn.clear()

    def clear_overrides(self) -> None:
        self._overrides.clear()
        self._asn.clear()

    def as_path(
        self, hops: Sequence[Optional[Address]]
    ) -> List[Optional[int]]:
        """Per-hop AS sequence; None for unresolvable hops."""
        return [self.asn(hop) for hop in hops]

    def collapsed_as_path(
        self, hops: Sequence[Optional[Address]]
    ) -> List[int]:
        """The deduplicated AS-level path, unresolvable hops dropped."""
        return collapse_as_path(self.as_path(hops))

    def same_as(self, a: Address, b: Address) -> Optional[bool]:
        """Whether two addresses map to the same AS; None if unknown."""
        asn_a, asn_b = self.asn(a), self.asn(b)
        if asn_a is None or asn_b is None:
            return None
        return asn_a == asn_b


def collapse_as_path(
    per_hop: Iterable[Optional[int]],
) -> List[int]:
    """Collapse a per-hop AS sequence into the AS-level path.

    Consecutive duplicates merge; unresolvable hops are dropped (the
    paper inserts ``*`` markers separately, via the suspicious-link
    flagging of §5.2.2).
    """
    path: List[int] = []
    for asn in per_hop:
        if asn is None:
            continue
        if not path or path[-1] != asn:
            path.append(asn)
    return path
