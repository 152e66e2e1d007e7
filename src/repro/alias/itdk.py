"""The offline ITDK-like alias dataset.

CAIDA's ITDK gives revtr 1.0 (and parts of revtr 2.0) a precomputed,
*partial* alias map: only a fraction of routers appear, which is why
30% of RR-revealed addresses were missing from it (Appendix B.1) and
why revtr 1.0 misses intersections. We reproduce the dataset by
sampling the generated ground truth at the configured coverage — the
downstream pipeline only ever sees the sampled map, never the truth.
"""

from __future__ import annotations

import random
from typing import Dict, List

from repro.net.addr import Address
from repro.sim.network import Internet


def build_itdk_dataset(internet: Internet) -> Dict[Address, int]:
    """Sample an ITDK-like alias map: address -> alias-group id.

    Only routers with at least two public addresses are meaningful
    alias groups; the topology config's ``alias_itdk_coverage``
    fraction of them is included. Group ids are arbitrary but stable
    for a given config seed.
    """
    coverage = internet.config.alias_itdk_coverage
    rng = random.Random(internet.config.seed ^ 0x17D4)
    dataset: Dict[Address, int] = {}
    group_id = 0
    for router_id in sorted(internet.routers):
        router = internet.routers[router_id]
        addresses: List[Address] = router.addresses()
        if len(addresses) < 2:
            continue
        if rng.random() >= coverage:
            continue
        group_id += 1
        for addr in addresses:
            dataset[addr] = group_id
    return dataset
