"""The §5.2 head-to-head: revtr 2.0 vs revtr 1.0 and the ladder.

One campaign drives Table 4 (packets by type and component), Fig. 5a
(accuracy against direct traceroutes), Fig. 5b (coverage, including
the timestamp ablations of Appendix D.1), and Fig. 5c (latency).

Setup mirrors §5.2.1: destinations are RIPE-Atlas-like probes (they
answer record route and can run the direct traceroute used as
approximate ground truth), sources are M-Lab sites, and each system
variant gets the same vantage points and the same traceroute atlas.
The atlas is built from a *disjoint* half of the probe population so a
measured destination's own traceroute is never in the atlas.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.accuracy import PathComparison, compare_paths
from repro.analysis.stats import median
from repro.core.adjacency import AdjacencyDatabase
from repro.core.atlas import TracerouteAtlas
from repro.core.result import ReverseTracerouteResult, RevtrStatus
from repro.experiments.common import Scenario
from repro.net.addr import Address
from repro.net.packet import TracerouteResult
from repro.probing.traceroute import paris_traceroute

#: The Table 4 ladder, in presentation order.
LADDER = (
    "revtr1.0",
    "revtr1.0+ingress",
    "revtr1.0+ingress+cache",
    "revtr1.0+ingress+cache-TS",
    "revtr2.0",
)

_PACKET_COLUMNS = ("rr", "spoof-rr", "ts", "spoof-ts")


@dataclass
class VariantOutcome:
    """Aggregates for one system variant over the campaign."""

    variant: str
    results: List[ReverseTracerouteResult] = field(default_factory=list)

    def coverage(self) -> float:
        """Fraction of attempted paths measured completely (Fig. 5b)."""
        attempted = [
            r
            for r in self.results
            if r.status is not RevtrStatus.UNRESPONSIVE
        ]
        if not attempted:
            return 0.0
        complete = sum(
            1
            for r in attempted
            if r.status is RevtrStatus.COMPLETE
        )
        return complete / len(attempted)

    def packet_counts(self) -> Dict[str, int]:
        """Online probes by type — one Table 4 row."""
        totals = {column: 0 for column in _PACKET_COLUMNS}
        for result in self.results:
            for column in _PACKET_COLUMNS:
                totals[column] += result.probe_counts.get(column, 0)
        totals["total"] = sum(totals[c] for c in _PACKET_COLUMNS)
        return totals

    def durations(self) -> List[float]:
        return [
            r.duration
            for r in self.results
            if r.status is not RevtrStatus.UNRESPONSIVE
        ]

    def median_duration(self) -> float:
        values = self.durations()
        return median(values) if values else float("nan")


@dataclass
class ComparisonCampaign:
    """Everything §5.2 derives its tables and figures from."""

    pairs: List[Tuple[Address, Address]]
    outcomes: Dict[str, VariantOutcome]
    #: direct traceroutes dst -> src (the accuracy reference)
    direct: Dict[Tuple[Address, Address], TracerouteResult]
    #: forward traceroutes src -> dst (for the forward-RR line)
    forward: Dict[Tuple[Address, Address], TracerouteResult]
    #: forward RR paths src -> dst that recorded the full path
    forward_rr: Dict[Tuple[Address, Address], List[Address]]
    scenario: Scenario

    def accuracy(
        self, variant: str
    ) -> List[PathComparison]:
        """Per-pair accuracy of a variant's complete paths (Fig. 5a)."""
        scenario = self.scenario
        comparisons = []
        for result in self.outcomes[variant].results:
            if result.status is not RevtrStatus.COMPLETE:
                continue
            trace = self.direct.get((result.dst, result.src))
            if trace is None or not trace.reached:
                continue
            comparison = compare_paths(
                result.addresses(),
                trace.hops,
                scenario.resolver,
                scenario.ip2as,
            )
            if comparison is not None:
                comparisons.append(comparison)
        return comparisons

    def forward_rr_accuracy(self) -> List[PathComparison]:
        """The forward-RR control line of Fig. 5a: a known-correct RR
        path compared against the same-direction traceroute."""
        comparisons = []
        for (src, dst), rr_path in self.forward_rr.items():
            trace = self.forward.get((src, dst))
            if trace is None or not trace.reached:
                continue
            comparison = compare_paths(
                rr_path,
                trace.hops,
                self.scenario.resolver,
                self.scenario.ip2as,
            )
            if comparison is not None:
                comparisons.append(comparison)
        return comparisons


def ground_truth_adjacencies(internet) -> AdjacencyDatabase:
    """A perfect adjacency database from simulator ground truth — the
    "+ TS + ground truth adj." row of Fig. 5b (Appendix D.1).  Each
    router link goes in as a two-hop traceroute."""
    database = AdjacencyDatabase()
    for neighbors in internet.adjacency.values():
        for egress, ingress in neighbors.values():
            database.add_traceroute(
                TracerouteResult(
                    src=egress, dst=ingress, hops=[egress, ingress]
                )
            )
    return database


def run(
    scenario: Scenario,
    n_pairs: int = 200,
    n_sources: int = 4,
    variants: Sequence[str] = LADDER,
    extra_ts_variants: bool = False,
    atlas_size: Optional[int] = None,
) -> ComparisonCampaign:
    """Run the comparison campaign.

    ``extra_ts_variants`` adds the two Fig. 5b TS rows (revtr2.0+TS and
    revtr2.0+TS with ground-truth adjacencies).
    """
    rng = random.Random(scenario.seed ^ 0xC04)
    atlas_size = (
        scenario.atlas_size if atlas_size is None else atlas_size
    )

    probes = list(scenario.atlas_vp_addrs)
    rng.shuffle(probes)
    half = max(1, len(probes) // 2)
    atlas_pool, destination_pool = probes[:half], probes[half:]
    sources = scenario.sources(n_sources)

    pairs: List[Tuple[Address, Address]] = []
    while len(pairs) < n_pairs:
        pairs.append(
            (rng.choice(destination_pool), rng.choice(sources))
        )

    # Per-source atlases from the disjoint pool, plus RR atlases.
    for source in sources:
        atlas = TracerouteAtlas(source, max_size=atlas_size)
        atlas.build(
            scenario.background_prober,
            atlas_pool,
            random.Random(
                scenario.seed ^ zlib.crc32(source.encode()) & 0xFFF
            ),
        )
        scenario.adopt_atlases(source, atlas)
        scenario.rr_atlas(source)

    # Reference measurements (charged to the background).
    direct: Dict[Tuple[Address, Address], TracerouteResult] = {}
    forward: Dict[Tuple[Address, Address], TracerouteResult] = {}
    forward_rr: Dict[Tuple[Address, Address], List[Address]] = {}
    for dst, src in dict.fromkeys(pairs):
        direct[(dst, src)] = paris_traceroute(
            scenario.background_prober, dst, src
        )
        forward[(src, dst)] = paris_traceroute(
            scenario.background_prober, src, dst
        )
        result = scenario.background_prober.rr_ping(src, dst)
        index = result.destination_stamp_index()
        if result.responded and index is not None:
            forward_rr[(src, dst)] = result.slots[: index + 1]

    all_variants = list(variants)
    if extra_ts_variants:
        all_variants += ["revtr2.0+TS", "revtr2.0+TS+truth"]

    truth_adjacency = (
        ground_truth_adjacencies(scenario.internet)
        if extra_ts_variants
        else None
    )

    outcomes: Dict[str, VariantOutcome] = {}
    for variant in all_variants:
        outcome = VariantOutcome(variant=variant)
        truth = variant.endswith("+truth")
        engines = {
            source: scenario.engine(
                source,
                "revtr2.0+TS" if truth else variant,
                adjacency=truth_adjacency if truth else None,
            )
            for source in sources
        }
        for dst, src in pairs:
            outcome.results.append(engines[src].measure(dst))
        outcomes[variant] = outcome

    return ComparisonCampaign(
        pairs=pairs,
        outcomes=outcomes,
        direct=direct,
        forward=forward,
        forward_rr=forward_rr,
        scenario=scenario,
    )


# ----------------------------------------------------------------------
# Reports
# ----------------------------------------------------------------------

#: Paper Table 4 rows (packets for 8,093 reverse traceroutes).
PAPER_TABLE4 = {
    "revtr1.0": (14_952, 220_186, 35_961, 4_130),
    "revtr1.0+ingress": (13_669, 97_400, 35_745, 3_810),
    "revtr1.0+ingress+cache": (12_708, 64_310, 35_765, 3_925),
    "revtr1.0+ingress+cache-TS": (12_690, 64_435, 0, 0),
    "revtr2.0": (11_831, 61_080, 0, 0),
}

#: Paper Fig. 5b coverage rows.
PAPER_COVERAGE = {
    "revtr1.0": 1.000,
    "revtr2.0": 0.781,
    "revtr2.0+TS": 0.782,
    "revtr2.0+TS+truth": 0.792,
}

#: Paper Fig. 5c medians (seconds).
PAPER_MEDIAN_LATENCY = {"revtr1.0": 78.0, "revtr2.0": 6.0}


def format_table4(campaign: ComparisonCampaign) -> str:
    lines = [
        "Table 4 — online packets by type and system component",
        f"{'variant':28s}{'RR':>8}{'SpoofRR':>9}{'TS':>8}"
        f"{'SpoofTS':>9}{'total':>9}{'vs 1.0':>8}",
    ]
    base_total = None
    for variant in LADDER:
        outcome = campaign.outcomes.get(variant)
        if outcome is None:
            continue
        counts = outcome.packet_counts()
        if base_total is None:
            base_total = max(1, counts["total"])
        lines.append(
            f"{variant:28s}{counts['rr']:8d}{counts['spoof-rr']:9d}"
            f"{counts['ts']:8d}{counts['spoof-ts']:9d}"
            f"{counts['total']:9d}"
            f"{counts['total'] / base_total:8.0%}"
        )
    paper_share = sum(PAPER_TABLE4["revtr2.0"]) / sum(
        PAPER_TABLE4["revtr1.0"]
    )
    lines.append(
        f"(paper: revtr 2.0 sends {paper_share:.0%} as many probes as "
        "revtr 1.0; most savings from ingress-based VP selection)"
    )
    return "\n".join(lines)


def format_fig5a(campaign: ComparisonCampaign) -> str:
    lines = ["Fig 5a — accuracy against the direct traceroute"]
    for variant in ("revtr1.0", "revtr2.0"):
        if variant not in campaign.outcomes:
            continue
        comparisons = campaign.accuracy(variant)
        if not comparisons:
            continue
        n = len(comparisons)
        as_exact = sum(1 for c in comparisons if c.as_exact) / n
        missing = sum(1 for c in comparisons if c.as_missing_only) / n
        correct = sum(1 for c in comparisons if c.as_correct) / n
        router = median([c.router_fraction for c in comparisons])
        optimistic = median(
            [c.router_fraction_optimistic for c in comparisons]
        )
        lines.append(
            f"  {variant:10s}: n={n}  "
            f"AS exact {as_exact:.1%}  missing-only {missing:.1%}  "
            f"AS correct {correct:.1%}  "
            f"router median {router:.2f}  optimistic {optimistic:.2f}"
        )
    forward = campaign.forward_rr_accuracy()
    if forward:
        lines.append(
            f"  forward-RR: n={len(forward)}  router median "
            f"{median([c.router_fraction for c in forward]):.2f}"
        )
    lines.append(
        "(paper: revtr2.0 AS exact 92.3% vs 81.8% for 1.0; "
        "router median 0.67, optimistic band up to 0.68; "
        "forward-RR 0.60)"
    )
    return "\n".join(lines)


def format_fig5b(campaign: ComparisonCampaign) -> str:
    lines = [
        "Fig 5b — coverage (complete paths / attempted)",
        f"{'variant':24s}{'measured':>10}{'paper':>8}",
    ]
    for variant, paper in PAPER_COVERAGE.items():
        outcome = campaign.outcomes.get(variant)
        if outcome is None:
            continue
        lines.append(
            f"{variant:24s}{outcome.coverage():10.3f}{paper:8.3f}"
        )
    return "\n".join(lines)


def format_fig5c(campaign: ComparisonCampaign) -> str:
    lines = [
        "Fig 5c — per-measurement latency (virtual seconds)",
        f"{'variant':28s}{'median':>9}{'p90':>9}",
    ]
    from repro.analysis.stats import percentile

    for variant in LADDER:
        outcome = campaign.outcomes.get(variant)
        if outcome is None:
            continue
        durations = outcome.durations()
        if not durations:
            continue
        lines.append(
            f"{variant:28s}{median(durations):9.2f}"
            f"{percentile(durations, 90):9.2f}"
        )
    lines.append(
        f"(paper: median {PAPER_MEDIAN_LATENCY['revtr1.0']:.0f} s for "
        f"revtr 1.0 vs {PAPER_MEDIAN_LATENCY['revtr2.0']:.0f} s for "
        "revtr 2.0, driven by 10 s spoofed-batch timeouts)"
    )
    return "\n".join(lines)


def throughput_projections(campaign: ComparisonCampaign):
    """§5.2.4 throughput projection from the measured probe costs."""
    from repro.analysis.throughput import project_throughput

    n_vps = len(campaign.scenario.spoofer_addrs)
    projections = []
    for variant in ("revtr1.0", "revtr2.0"):
        outcome = campaign.outcomes.get(variant)
        if outcome is None:
            continue
        counts = outcome.packet_counts()
        projections.append(
            project_throughput(
                variant,
                counts["total"],
                len(outcome.results),
                n_vps,
            )
        )
    return projections


def format_throughput(campaign: ComparisonCampaign) -> str:
    from repro.analysis.throughput import format_projection_table

    projections = throughput_projections(campaign)
    # Also show the paper-scale fleet (146 sites) for comparability.
    scaled = [p.scaled_to(146) for p in projections]
    local = format_projection_table(projections)
    at_scale = format_projection_table(scaled)
    return (
        local
        + "\n\nscaled to the paper's 146-site fleet:\n"
        + at_scale
    )
