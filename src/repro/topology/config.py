"""Topology generation parameters.

All knobs live here so experiments can dial topology size independently
of behaviour. The behavioural rates default to the values the paper
measured on the real Internet (Appendices E and F, Section 4.4), so the
revtr pipeline downstream reproduces the paper's comparisons.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional


@dataclass
class TopologyConfig:
    """Parameters for :func:`repro.topology.generator.build_internet`.

    Size knobs
    ----------
    n_tier1: fully meshed transit-free ASes.
    n_transit: mid-tier transit providers.
    n_stub: edge ASes (most destinations live here).
    n_nren: research networks with cold-potato routing behaviour,
        reproducing the Fig. 8b outliers.
    n_mlab_sites: vantage-point sites able to send spoofed RR probes
        (the paper's 146 M-Lab sites, scaled down).
    n_atlas_probes: traceroute-only probes (the paper's RIPE Atlas).

    Behaviour knobs (paper-measured defaults)
    -----------------------------------------
    host_ping_responsive: fraction of hosts answering plain pings
        (Table 6: 73–77%).
    host_options_responsive_given_ping: fraction of ping-responsive
        hosts that also answer RR pings (Appendix F: 78%).
    router_no_stamp / router_private_stamp / router_loopback_stamp /
    router_ingress_stamp: RR stamping-policy mix; the remainder stamp
        the classic egress interface.
    router_snmpv3: fraction of routers answering unsolicited SNMPv3
        (§4.4: 30.5% of ITDK routers).
    router_ts_support: fraction honouring tsprespec.
    router_ttl_unresponsive: fraction never answering TTL-exceeded
        (the ``*`` hops of traceroute).
    dbr_violation_rate: fraction of routers whose next hop depends on
        the packet source (Appendix E: 6.6% of hops violate).
    load_balancer_rate: fraction of multi-path routers doing ECMP.
    spoof_filter_rate: fraction of ASes dropping spoofed packets at
        their edge.
    alias_itdk_coverage: fraction of routers present in the offline
        ITDK-like alias dataset available to revtr 1.0.
    flattening: peering density multiplier; the 2016 epoch uses a lower
        value, reproducing Fig. 11's shift of destinations toward VPs.
    """

    # --- size ---
    n_tier1: int = 5
    n_transit: int = 30
    n_stub: int = 120
    n_nren: int = 4
    n_mlab_sites: int = 12
    n_atlas_probes: int = 60
    routers_per_tier1: int = 6
    routers_per_transit: int = 5
    routers_per_stub: int = 4
    stub_chain_min: int = 1
    stub_chain_max: int = 10
    prefixes_per_stub: int = 2
    prefixes_per_transit: int = 2
    hosts_per_prefix: int = 4
    stub_multihoming: float = 0.6
    transit_peering_degree: int = 2

    # --- behaviour ---
    host_ping_responsive: float = 0.75
    host_options_responsive_given_ping: float = 0.78
    host_rr_stamps: float = 0.75
    router_no_stamp: float = 0.06
    router_private_stamp: float = 0.04
    router_loopback_stamp: float = 0.08
    router_ingress_stamp: float = 0.10
    router_snmpv3: float = 0.30
    router_ts_support: float = 0.22
    router_ttl_unresponsive: float = 0.05
    dbr_violation_rate: float = 0.066
    load_balancer_rate: float = 0.12
    #: fraction of routers inside MPLS-style tunnels: invisible to
    #: traceroute (no TTL replies) and silent in record route — one of
    #: the paper's sources of incomplete paths (§5.2.2).
    mpls_hidden_rate: float = 0.03
    #: large interconnects (tier-1/tier-1 and tier-1/transit pairs)
    #: get a second parallel link with this probability, giving border
    #: routers real egress choices (hot potato across links).
    parallel_link_rate: float = 0.15
    #: fraction of ASes whose equal-preference BGP tie-breaks are
    #: direction-neutral (same link chosen both ways); calibrates the
    #: AS-level path-symmetry rate to the paper's 53% (§6.2).
    symmetric_tiebreak_fraction: float = 0.45
    #: fraction of intra-AS links numbered from a shared LAN block
    #: instead of a /30 — their two interfaces are not /30 peers, which
    #: defeats the Appendix B.1 point-to-point alias heuristic and is a
    #: main cause of the paper's low router-level match rates (§5.2.2).
    lan_link_fraction: float = 0.35
    spoof_filter_rate: float = 0.10
    alias_itdk_coverage: float = 0.55
    flattening: float = 1.0

    # --- misc ---
    seed: int = 0
    base_octet: int = 16
    link_latency_ms: float = 2.0

    def __post_init__(self) -> None:
        stamp_mix = (
            self.router_no_stamp
            + self.router_private_stamp
            + self.router_loopback_stamp
            + self.router_ingress_stamp
        )
        if stamp_mix >= 1.0:
            raise ValueError("RR stamping-policy fractions exceed 1.0")
        for name in (
            "host_ping_responsive",
            "host_options_responsive_given_ping",
            "router_snmpv3",
            "router_ts_support",
            "router_ttl_unresponsive",
            "dbr_violation_rate",
            "load_balancer_rate",
            "spoof_filter_rate",
            "alias_itdk_coverage",
        ):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")

    @classmethod
    def tiny(cls, seed: int = 0) -> "TopologyConfig":
        """A minimal topology for fast unit tests."""
        return cls(
            n_tier1=3,
            n_transit=8,
            n_stub=24,
            n_nren=1,
            n_mlab_sites=4,
            n_atlas_probes=12,
            seed=seed,
        )

    @classmethod
    def small(cls, seed: int = 0) -> "TopologyConfig":
        """A small topology for integration tests."""
        return cls(
            n_tier1=4,
            n_transit=16,
            n_stub=60,
            n_nren=2,
            n_mlab_sites=8,
            n_atlas_probes=30,
            seed=seed,
        )

    @classmethod
    def evaluation(cls, seed: int = 0) -> "TopologyConfig":
        """The benchmark-scale topology used by the experiment suite."""
        return cls(seed=seed)

    @classmethod
    def large(cls, seed: int = 0) -> "TopologyConfig":
        """A large topology for scale/performance studies."""
        return cls(
            n_tier1=8,
            n_transit=60,
            n_stub=400,
            n_nren=6,
            n_mlab_sites=24,
            n_atlas_probes=150,
            seed=seed,
        )

    @classmethod
    def epoch_2016(cls, seed: int = 0) -> "TopologyConfig":
        """The sparser, pre-flattening Internet of the 2016 survey.

        Fewer vantage-point sites and lower peering density put fewer
        destinations within record-route range (Fig. 11, Table 6).
        """
        return cls(
            n_mlab_sites=6,
            flattening=0.55,
            stub_multihoming=0.25,
            transit_peering_degree=1,
            seed=seed,
        )
