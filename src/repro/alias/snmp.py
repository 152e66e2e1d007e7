"""SNMPv3 engine-id alias resolution.

Albakour et al. showed unsolicited SNMPv3 requests leak a stable
per-router engine identifier; the paper uses this as *reliable* alias
ground truth for the Section 4.4 symmetry study (94.8% of responsive
routers return the same identifier from every address). Routers that do
not answer SNMPv3 are — like reality — simply unknown.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.net.addr import Address
from repro.probing.prober import Prober


class SnmpResolver:
    """Reads each address's SNMPv3 engine identifier, once.

    Two addresses with the same engine id are aliases of one router.
    """

    def __init__(self, prober: Prober) -> None:
        self.prober = prober
        self._cache: Dict[Address, Optional[str]] = {}

    def engine_id(self, addr: Address) -> Optional[str]:
        if addr not in self._cache:
            self._cache[addr] = self.prober.snmpv3_probe(addr)
        return self._cache[addr]
