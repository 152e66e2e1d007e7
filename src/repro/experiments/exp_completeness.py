"""§5.1: per-source completeness of the large-scale campaign.

The paper reports that revtr 2.0 could measure at least one reverse
path from destinations in 39,544 of 72,272 ASes overall; per source the
median is 35.4K ASes, 133 of 146 sources exceed 30K, and even the worst
M-Lab source still reaches 19K ASes (0.26 of the Internet) — far more
than any technique with comparable correctness.

This module measures the same distribution over the simulated fleet:
for every source, the fraction of ASes from which at least one
complete reverse traceroute was measured.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.analysis.stats import median
from repro.core.result import RevtrStatus
from repro.experiments.common import Scenario
from repro.net.addr import Address

#: Paper reference values.
PAPER_OVERALL_FRACTION = 39_544 / 72_272  # ~0.55
PAPER_WORST_SOURCE_FRACTION = 0.26

#: The destinations measured, and the sources they are measured from.
N_DESTINATIONS = 250
N_SOURCES = 6


@dataclass
class CompletenessResult:
    #: source -> set size of ASes with >= 1 complete reverse path
    per_source_ases: Dict[Address, int]
    overall_ases: int
    total_ases: int
    destinations_attempted: int

    def per_source_fractions(self) -> List[float]:
        return sorted(
            count / self.total_ases
            for count in self.per_source_ases.values()
        )

    def overall_fraction(self) -> float:
        return self.overall_ases / self.total_ases

    def median_fraction(self) -> float:
        fractions = self.per_source_fractions()
        return median(fractions) if fractions else 0.0

    def worst_fraction(self) -> float:
        fractions = self.per_source_fractions()
        return fractions[0] if fractions else 0.0


def run(scenario: Scenario) -> CompletenessResult:
    """Measure per-source AS completeness."""
    internet = scenario.internet
    destinations = scenario.responsive_destinations(N_DESTINATIONS)
    total_ases = len(internet.graph)

    per_source: Dict[Address, set] = {}
    overall: set = set()
    for source in scenario.sources(N_SOURCES):
        engine = scenario.engine(source, "revtr2.0")
        covered: set = set()
        for dst in destinations:
            result = engine.measure(dst)
            if result.status is not RevtrStatus.COMPLETE:
                continue
            for asn in scenario.ip2as.collapsed_as_path(
                result.addresses()
            ):
                covered.add(asn)
        per_source[source] = covered
        overall |= covered
    return CompletenessResult(
        per_source_ases={
            source: len(covered)
            for source, covered in per_source.items()
        },
        overall_ases=len(overall),
        total_ases=total_ases,
        destinations_attempted=len(destinations),
    )


def format_report(result: CompletenessResult) -> str:
    fractions = result.per_source_fractions()
    lines = [
        "§5.1 — per-source completeness (ASes seen on complete "
        "reverse paths)",
        f"ASes in topology: {result.total_ases}; destinations "
        f"attempted per source: {result.destinations_attempted}",
        f"overall: {result.overall_ases} ASes "
        f"({result.overall_fraction():.0%}; paper "
        f"{PAPER_OVERALL_FRACTION:.0%})",
        f"per-source: median {result.median_fraction():.0%}, "
        f"worst {result.worst_fraction():.0%} "
        f"(paper worst: {PAPER_WORST_SOURCE_FRACTION:.0%})",
    ]
    for fraction in fractions:
        lines.append(f"  source coverage: {fraction:.0%}")
    return "\n".join(lines)
