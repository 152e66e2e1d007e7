"""SNMPv3 engine-id alias resolution.

Albakour et al. showed unsolicited SNMPv3 requests leak a stable
per-router engine identifier; the paper uses this as *reliable* alias
ground truth for the Section 4.4 symmetry study (94.8% of responsive
routers return the same identifier from every address). Routers that do
not answer SNMPv3 are — like reality — simply unknown.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Set

from repro.net.addr import Address
from repro.probing.prober import Prober


class SnmpResolver:
    """Groups addresses by SNMPv3 engine identifier."""

    def __init__(self, prober: Prober) -> None:
        self.prober = prober
        self._cache: Dict[Address, Optional[str]] = {}

    def engine_id(self, addr: Address) -> Optional[str]:
        if addr not in self._cache:
            self._cache[addr] = self.prober.snmpv3_probe(addr)
        return self._cache[addr]

    def same_router(self, a: Address, b: Address) -> Optional[bool]:
        """True/False when both respond; None when evidence is missing."""
        id_a, id_b = self.engine_id(a), self.engine_id(b)
        if id_a is None or id_b is None:
            return None
        return id_a == id_b

    def resolve(self, addresses: Sequence[Address]) -> List[Set[Address]]:
        """Group responsive addresses by engine id (singletons for the
        unresponsive)."""
        groups: Dict[str, Set[Address]] = {}
        singletons: List[Set[Address]] = []
        for addr in dict.fromkeys(addresses):
            engine = self.engine_id(addr)
            if engine is None:
                singletons.append({addr})
            else:
                groups.setdefault(engine, set()).add(addr)
        return list(groups.values()) + singletons
