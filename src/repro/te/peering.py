"""A PEERING-like anycast testbed over the simulator.

PEERING lets researchers announce real prefixes from multiple
university/IXP sites and manipulate the announcements (§6.1). Here, a
set of site ASes anycast one prefix; the deployment object owns the
announcement (per-site poisoning, no-export), and the testbed
re-announces it after each change through ``Internet.announce``, which
drops the simulator's per-destination routes the way BGP reconverges.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Optional, Sequence, Tuple

from repro.net.addr import Address, Prefix
from repro.sim.network import Internet
from repro.topology.policy import AnnouncementSpec, Origin

#: Virtual-time cost of BGP convergence + route-flap-damping safety
#: after each announcement change (paper: 15 minutes).
CONVERGENCE_SECONDS = 15 * 60.0


@dataclass
class AnycastDeployment:
    """One anycast prefix announced from several sites."""

    prefix: Prefix
    source: Address  # the revtr source living on the prefix
    site_asns: Tuple[int, ...]
    #: site AS -> ASes poisoned on that site's announcement only
    poisoned: Dict[int, FrozenSet[int]] = field(default_factory=dict)
    no_export: FrozenSet[Tuple[int, int]] = frozenset()

    def spec(self) -> AnnouncementSpec:
        origins = tuple(
            Origin(asn, poisoned=self.poisoned.get(asn, frozenset()))
            for asn in sorted(self.site_asns)
        )
        return AnnouncementSpec(origins=origins, no_export=self.no_export)


class PeeringTestbed:
    """Manages anycast deployments over the simulated Internet."""

    def __init__(self, internet: Internet) -> None:
        self.internet = internet
        self.deployments: Dict[Prefix, AnycastDeployment] = {}

    def deploy(
        self,
        source: Address,
        site_asns: Sequence[int],
    ) -> AnycastDeployment:
        """Anycast the prefix containing *source* from *site_asns*.

        Each site AS must have at least one router; the site's delivery
        anchor is its lowest-id router (the PEERING mux).
        """
        prefix = self.internet.prefix_table.lookup_prefix(source)
        if prefix is None:
            raise ValueError(f"{source} is not in an announced prefix")
        host = self.internet.hosts.get(source)
        if host is None:
            raise ValueError(f"{source} is not a host")
        sites = tuple(sorted(set(site_asns) | {host.asn}))
        deployment = AnycastDeployment(
            prefix=prefix, source=source, site_asns=sites
        )
        self.deployments[prefix] = deployment
        self._announce(deployment)
        return deployment

    def _anchor_for(self, asn: int) -> int:
        routers = self.internet.routers_by_as.get(asn)
        if not routers:
            raise ValueError(f"AS{asn} has no routers")
        return min(routers)

    def _announce(self, deployment: AnycastDeployment) -> None:
        self.internet.announce(
            deployment.prefix,
            deployment.spec(),
            {asn: self._anchor_for(asn) for asn in deployment.site_asns},
        )

    # ------------------------------------------------------------------
    # Announcement manipulation
    # ------------------------------------------------------------------

    def reannounce(
        self,
        deployment: AnycastDeployment,
        no_export: Optional[FrozenSet[Tuple[int, int]]] = None,
        clock=None,
    ) -> AnycastDeployment:
        """Announce *deployment* as it now stands and let routing
        reconverge.

        Charges the 15-minute convergence delay if a clock is given.
        """
        if no_export is not None:
            deployment.no_export = no_export
        self._announce(deployment)
        if clock is not None:
            clock.advance(CONVERGENCE_SECONDS)
        return deployment

    def withdraw(self, deployment: AnycastDeployment) -> None:
        """Remove the anycast announcement (back to unicast)."""
        self.internet.withdraw(deployment.prefix)
        self.deployments.pop(deployment.prefix, None)

    def catchment_of(
        self, deployment: AnycastDeployment, asn: int
    ) -> Optional[int]:
        """Ground-truth catchment of *asn* (control-plane view)."""
        return self.internet.policy.catchment(asn, deployment.spec())
