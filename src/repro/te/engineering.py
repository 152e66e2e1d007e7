"""Reverse-traceroute-driven traffic engineering (§6.1).

The TrafficEngineer closes the paper's loop: measure reverse routes
from monitoring targets toward the anycast source, summarise which
site and which transit each client arrives through, apply an
announcement change (poison / no-export), wait out
convergence, and measure again. The Fig. 7 case study — shifting
suboptimal transit routes toward a closer site and rebalancing
providers — is the `exp_traffic_eng` experiment built on this class.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.asmap.ip2as import IPToASMapper
from repro.core.result import ReverseTracerouteResult, RevtrStatus
from repro.core.revtr import RevtrEngine
from repro.net.addr import Address
from repro.probing.prober import Prober
from repro.te.peering import AnycastDeployment, PeeringTestbed


@dataclass
class CatchmentReport:
    """One measurement round: who lands where, through what."""

    #: destination -> catchment site AS (None when unmeasured)
    site_of: Dict[Address, Optional[int]] = field(default_factory=dict)
    #: destination -> transit ASes on its reverse path
    transits_of: Dict[Address, Tuple[int, ...]] = field(
        default_factory=dict
    )
    #: destination -> RTT to the anycast source (seconds)
    rtt_of: Dict[Address, float] = field(default_factory=dict)
    results: List[ReverseTracerouteResult] = field(default_factory=list)

    def site_shares(self) -> Dict[int, float]:
        """Fraction of measured destinations landing at each site."""
        landed = [s for s in self.site_of.values() if s is not None]
        counts = Counter(landed)
        total = len(landed)
        if total == 0:
            return {}
        return {site: n / total for site, n in counts.items()}

    def destinations_through(
        self, transit_asn: int
    ) -> List[Address]:
        return [
            dst
            for dst, transits in self.transits_of.items()
            if transit_asn in transits
        ]


class TrafficEngineer:
    """Measure → reconfigure → re-measure, with revtr visibility."""

    def __init__(
        self,
        testbed: PeeringTestbed,
        engine: RevtrEngine,
        prober: Prober,
        ip2as: IPToASMapper,
    ) -> None:
        self.testbed = testbed
        self.engine = engine
        self.prober = prober
        self.ip2as = ip2as

    def measure_round(
        self,
        deployment: AnycastDeployment,
        destinations: Sequence[Address],
    ) -> CatchmentReport:
        """One round of reverse traceroutes toward the anycast source."""
        report = CatchmentReport()
        site_set = set(deployment.site_asns)
        for dst in destinations:
            result = self.engine.measure(dst)
            report.results.append(result)
            if result.status is not RevtrStatus.COMPLETE:
                report.site_of[dst] = None
                continue
            # Drop the final hop: the source address itself maps to the
            # prefix's nominal origin, not the actual catchment site.
            # The preceding hops are the catchment site's own routers.
            as_path = self.ip2as.collapsed_as_path(
                result.addresses()[:-1]
            )
            site = next(
                (asn for asn in reversed(as_path) if asn in site_set),
                None,
            )
            report.site_of[dst] = site
            dst_asn = self.ip2as.asn(dst)
            report.transits_of[dst] = tuple(
                asn
                for asn in as_path
                if asn not in site_set and asn != dst_asn
            )
            reply = self.prober.ping(deployment.source, dst)
            if reply is not None:
                report.rtt_of[dst] = reply.rtt
        return report

    # ------------------------------------------------------------------
    # The §6.1 knobs
    # ------------------------------------------------------------------

    def no_export(
        self, deployment: AnycastDeployment, via: int, neighbor: int
    ) -> AnycastDeployment:
        """Provider no-export community (Fig. 7 right): tell *via* not
        to export the prefix to *neighbor*."""
        return self.testbed.reannounce(
            deployment,
            no_export=deployment.no_export | {(via, neighbor)},
            clock=self.prober.clock,
        )
