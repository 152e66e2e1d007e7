"""§6.2: the Internet path-asymmetry study.

A bidirectional campaign — forward traceroute from each M-Lab source to
each destination, reverse traceroute back — feeding:

* Fig. 8a: symmetry CCDF at AS and router granularity
  (paper: only 53% of paths symmetric at AS level; at router level the
  median reverse path shares 28% of forward hops);
* Fig. 8b / Table 7: per-AS asymmetry prevalence vs customer cone
  (tier-1s dominate; NRENs are small-cone outliers);
* Fig. 12: the same excluding paths with symmetry assumptions;
* Fig. 13: AS-path lengths of symmetric vs asymmetric paths;
* Fig. 14: P(hop also on reverse path) by position.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.analysis.asymmetry import (
    AsymmetryPrevalence,
    asymmetry_prevalence,
    hop_symmetry_fraction,
    path_length_distribution,
    positional_symmetry,
)
from repro.analysis.stats import mean, median
from repro.core.result import RevtrStatus
from repro.experiments.common import Scenario
from repro.net.addr import Address
from repro.probing.traceroute import paris_traceroute

#: Paper reference values.
PAPER_AS_SYMMETRIC = 0.53
PAPER_ROUTER_MEDIAN = 0.28

#: ASes Table 7 ranks.
TABLE7_ROWS = 10


@dataclass
class PairRecord:
    """One bidirectional measurement."""

    src: Address
    dst: Address
    forward_as: List[int]
    reverse_as: List[int]  # normalised to forward orientation
    router_symmetry: Optional[float]
    has_assumption: bool

    @property
    def as_symmetric(self) -> bool:
        """The paper's predicate: every forward AS is on the reverse
        path (membership, not sequence equality — §6.2, Appx G.3)."""
        from repro.analysis.asymmetry import is_symmetric_pair

        return is_symmetric_pair(self.forward_as, self.reverse_as)


@dataclass
class AsymmetryCampaign:
    records: List[PairRecord]
    scenario: Scenario

    def as_symmetric_fraction(
        self, exclude_assumptions: bool = False
    ) -> float:
        records = self.records
        if exclude_assumptions:
            records = [r for r in records if not r.has_assumption]
        if not records:
            return 0.0
        return sum(1 for r in records if r.as_symmetric) / len(records)

    def router_symmetry_values(self) -> List[float]:
        return [
            r.router_symmetry
            for r in self.records
            if r.router_symmetry is not None
        ]

    def as_pairs(self) -> List[Tuple[List[int], List[int]]]:
        return [(r.forward_as, r.reverse_as) for r in self.records]

    def prevalence(self) -> AsymmetryPrevalence:
        return asymmetry_prevalence(self.as_pairs())

    def cone_scatter(self) -> List[Tuple[int, int, float, str]]:
        """Fig 8b points: (asn, cone size, prevalence, tier)."""
        prevalence = self.prevalence()
        graph = self.scenario.internet.graph
        points = []
        for asn in prevalence.involved:
            if asn not in graph:
                continue
            points.append(
                (
                    asn,
                    graph.cone_size(asn),
                    prevalence.prevalence(asn),
                    graph.nodes[asn].tier.value,
                )
            )
        points.sort(key=lambda p: -p[2])
        return points


def run(
    scenario: Scenario,
    n_destinations: int = 200,
    n_sources: int = 4,
) -> AsymmetryCampaign:
    """Run the bidirectional campaign."""
    destinations = scenario.responsive_destinations(
        n_destinations, options_only=True
    )
    records: List[PairRecord] = []
    for source in scenario.sources(n_sources):
        engine = scenario.engine(source, "revtr2.0")
        for dst in destinations:
            result = engine.measure(dst)
            if result.status is not RevtrStatus.COMPLETE:
                continue
            forward = paris_traceroute(
                scenario.background_prober, source, dst
            )
            if not forward.reached:
                continue
            forward_hops = [h for h in forward.hops if h is not None]
            forward_as = scenario.ip2as.collapsed_as_path(forward_hops)
            reverse_as = list(
                reversed(
                    scenario.ip2as.collapsed_as_path(
                        result.addresses()
                    )
                )
            )
            records.append(
                PairRecord(
                    src=source,
                    dst=dst,
                    forward_as=forward_as,
                    reverse_as=reverse_as,
                    router_symmetry=hop_symmetry_fraction(
                        forward.hops,
                        result.addresses(),
                        scenario.resolver,
                    ),
                    has_assumption=result.has_symmetry_assumption,
                )
            )
    return AsymmetryCampaign(records=records, scenario=scenario)


# ----------------------------------------------------------------------
# Reports
# ----------------------------------------------------------------------


def format_fig8a(campaign: AsymmetryCampaign) -> str:
    router = campaign.router_symmetry_values()
    lines = [
        "Fig 8a — path symmetry",
        f"pairs: {len(campaign.records)}",
        f"AS-level symmetric: {campaign.as_symmetric_fraction():.0%}"
        f" (paper {PAPER_AS_SYMMETRIC:.0%})",
    ]
    if router:
        lines.append(
            f"router-level median shared fraction: "
            f"{median(router):.2f} (paper {PAPER_ROUTER_MEDIAN:.2f})"
        )
    return "\n".join(lines)


def format_fig8b_table7(campaign: AsymmetryCampaign) -> str:
    graph = campaign.scenario.internet.graph
    lines = [
        "Fig 8b / Table 7 — asymmetry prevalence vs customer cone",
        f"{'rank':>4} {'ASN':>6} {'prevalence':>11} {'cone':>6} {'tier':>8}",
    ]
    for rank, (asn, cone, prevalence, tier) in enumerate(
        campaign.cone_scatter()[:TABLE7_ROWS], start=1
    ):
        lines.append(
            f"{rank:4d} {asn:6d} {prevalence:11.3f} {cone:6d} {tier:>8}"
        )
    points = campaign.cone_scatter()
    tier1 = [p for p in points if p[3] == "tier1"]
    nren = [p for p in points if p[3] == "nren"]
    if tier1:
        lines.append(
            f"tier-1 mean prevalence: "
            f"{mean([p[2] for p in tier1]):.3f} "
            f"(paper: tier-1s dominate the top ranks)"
        )
    if nren:
        lines.append(
            f"NREN mean prevalence: {mean([p[2] for p in nren]):.3f} "
            f"with cone {max(p[1] for p in nren)} "
            f"(paper: small-cone outliers)"
        )
    return "\n".join(lines)


def format_fig12(campaign: AsymmetryCampaign) -> str:
    full = campaign.as_symmetric_fraction()
    no_assumption = campaign.as_symmetric_fraction(
        exclude_assumptions=True
    )
    return (
        "Fig 12 — symmetry excluding assumption-bearing paths\n"
        f"all complete paths: {full:.0%} symmetric; "
        f"no-assumption subset: {no_assumption:.0%} "
        "(paper: within 3% of each other)"
    )


def format_fig13(campaign: AsymmetryCampaign) -> str:
    graph = campaign.scenario.internet.graph
    tier1 = set(graph.tier1_asns())
    pairs = campaign.as_pairs()
    sym = path_length_distribution(
        pairs, symmetric=True, through_asns=tier1
    )
    asym = path_length_distribution(
        pairs, symmetric=False, through_asns=tier1
    )
    lines = ["Fig 13 — AS-path length vs symmetry (through tier-1s)"]
    if sym:
        lines.append(
            f"symmetric paths: mean length {mean(sym):.2f} (n={len(sym)})"
        )
    if asym:
        lines.append(
            f"asymmetric paths: mean length {mean(asym):.2f} (n={len(asym)})"
        )
    lines.append("(paper: symmetric paths are shorter)")
    return "\n".join(lines)


def format_fig14(campaign: AsymmetryCampaign) -> str:
    pairs = campaign.as_pairs()
    lines = [
        "Fig 14 — P(hop also on reverse path) by position "
        "(paper: dips mid-path)"
    ]
    for length in (3, 4, 5, 6):
        profile = positional_symmetry(pairs, length)
        if profile:
            rendered = " ".join(f"{p:.2f}" for p in profile)
            lines.append(f"  {length}-hop paths: [{rendered}]")
    return "\n".join(lines)
