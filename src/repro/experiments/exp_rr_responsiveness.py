"""Table 6 and Fig. 11: record-route responsiveness and reachability.

Replicates the Appendix F surveys: one responsive destination per BGP
prefix, probed with a plain ping and an RR ping from every vantage
point, in two epochs — the sparse pre-flattening 2016 Internet and the
2020 one — plus the "2020 with 2016 VPs" control that isolates the
topology change from the vantage-point expansion.

Paper headlines: ping-responsive 77%/73%, RR-responsive 58%/57%,
reachable within 8 hops 36% of all probed (62-63% of RR-responsive in
both years); within 4 hops of the closest VP: 16% (2016) → 39% (2020).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.net.addr import Address
from repro.probing.prober import Prober
from repro.sim.network import Internet
from repro.topology.config import TopologyConfig
from repro.topology.generator import build_internet

#: Paper reference values per epoch.
PAPER = {
    "2016": {
        "ping": 0.77,
        "rr": 0.58,
        "reachable8": 0.36,
        "within4_of_rr": 0.16,
    },
    "2020": {
        "ping": 0.73,
        "rr": 0.57,
        "reachable8": 0.36,
        "within4_of_rr": 0.39,
    },
}


@dataclass
class EpochSurvey:
    """One epoch's survey counts (Table 6 column)."""

    label: str
    probed: int = 0
    ping_responsive: int = 0
    rr_responsive: int = 0
    reachable8: int = 0
    #: closest-VP RR distances of RR-responsive destinations (Fig 11)
    distances: List[int] = field(default_factory=list)

    def fractions(self) -> Dict[str, float]:
        total = max(1, self.probed)
        rr = max(1, self.rr_responsive)
        return {
            "ping": self.ping_responsive / total,
            "rr": self.rr_responsive / total,
            "reachable8": self.reachable8 / total,
            "within4_of_rr": sum(
                1 for d in self.distances if d <= 4
            )
            / rr,
            "within8_of_rr": sum(
                1 for d in self.distances if d <= 8
            )
            / rr,
        }

    def as_dict(self) -> Dict[str, object]:
        """JSON-serializable view (``repro survey --json``)."""
        return {
            "label": self.label,
            "probed": self.probed,
            "ping_responsive": self.ping_responsive,
            "rr_responsive": self.rr_responsive,
            "reachable8": self.reachable8,
            "fractions": self.fractions(),
            "distance_cdf": [
                list(point) for point in self.distance_cdf()
            ],
        }

    def distance_cdf(self) -> List[Tuple[int, float]]:
        """Fig 11 series: (hops, fraction of RR-responsive <= hops)."""
        rr = max(1, self.rr_responsive)
        return [
            (hops, sum(1 for d in self.distances if d <= hops) / rr)
            for hops in range(1, 10)
        ]


@dataclass
class RRResponsivenessResult:
    surveys: Dict[str, EpochSurvey]

    def as_dict(self) -> Dict[str, object]:
        return {
            "surveys": {
                label: survey.as_dict()
                for label, survey in self.surveys.items()
            },
            "paper_reference": PAPER,
        }


def _survey(
    internet: Internet, vps: List[Address], label: str
) -> EpochSurvey:
    prober = Prober(internet)
    survey = EpochSurvey(label=label)
    for info in internet.host_prefixes():
        hosts = sorted(info.hosts)
        if not hosts:
            continue
        dst = hosts[0]
        survey.probed += 1
        if prober.ping(vps[0], dst) is not None:
            survey.ping_responsive += 1
        best: Optional[int] = None
        responded = False
        for vp in vps:
            result = prober.rr_ping(vp, dst, advance_clock=False)
            if result.responded:
                responded = True
                distance = result.distance()
                if distance is not None and (
                    best is None or distance < best
                ):
                    best = distance
        if responded:
            survey.rr_responsive += 1
            if best is not None:
                survey.distances.append(best)
                if best <= 8:
                    survey.reachable8 += 1
    return survey


def run(seed: int = 0) -> RRResponsivenessResult:
    """Run the Table 6 / Fig 11 surveys over both epochs."""
    internet_2020 = build_internet(TopologyConfig.evaluation(seed))
    internet_2016 = build_internet(TopologyConfig.epoch_2016(seed))
    vps_2020 = list(internet_2020.mlab_hosts)
    vps_2016 = list(internet_2016.mlab_hosts)
    #: the "Nov 2020 with 2016 VPs" control: 2020 topology, old fleet
    vps_2020_restricted = vps_2020[: len(vps_2016)]

    surveys = {
        "2016": _survey(internet_2016, vps_2016, "Sept 2016, all VPs"),
        "2020": _survey(internet_2020, vps_2020, "Nov 2020, all VPs"),
        "2020-with-2016-vps": _survey(
            internet_2020, vps_2020_restricted, "Nov 2020, 2016 VPs"
        ),
    }
    return RRResponsivenessResult(surveys=surveys)


def format_table6(result: RRResponsivenessResult) -> str:
    lines = [
        "Table 6 — RR responsiveness and reachability per epoch",
        f"{'metric':22s}{'2016':>8}{'2020':>8}"
        f"{'paper16':>9}{'paper20':>9}",
    ]
    f16 = result.surveys["2016"].fractions()
    f20 = result.surveys["2020"].fractions()
    for metric in ("ping", "rr", "reachable8"):
        lines.append(
            f"{metric:22s}{f16[metric]:8.2f}{f20[metric]:8.2f}"
            f"{PAPER['2016'][metric]:9.2f}{PAPER['2020'][metric]:9.2f}"
        )
    return "\n".join(lines)


def format_fig11(result: RRResponsivenessResult) -> str:
    lines = [
        "Fig 11 — RR hops from the closest VP (CDF over RR-responsive)",
        f"{'hops':>5}"
        + "".join(f"{label:>14}" for label in result.surveys),
    ]
    cdfs = {
        label: dict(survey.distance_cdf())
        for label, survey in result.surveys.items()
    }
    for hops in range(1, 10):
        lines.append(
            f"{hops:5d}"
            + "".join(
                f"{cdfs[label].get(hops, 0.0):14.2f}"
                for label in result.surveys
            )
        )
    f16 = result.surveys["2016"].fractions()
    f20 = result.surveys["2020"].fractions()
    paper16 = PAPER["2016"]["within4_of_rr"]
    paper20 = PAPER["2020"]["within4_of_rr"]
    lines.append(
        f"within 4 of RR-responsive: 2016 {f16['within4_of_rr']:.0%} "
        f"(paper {paper16:.0%}), 2020 {f20['within4_of_rr']:.0%} "
        f"(paper {paper20:.0%})"
    )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Insight 1.3: what spoofing buys (Appendix F)
# ----------------------------------------------------------------------

#: Paper: reverse hops measurable for 32% of <source, destination>
#: pairs without spoofing, 63% with spoofing — roughly 2x.
PAPER_DIRECT_COVERAGE = 0.32
PAPER_SPOOFED_COVERAGE = 0.63

#: Pairs the spoofing-gain measurement tests, at most.
SPOOFING_GAIN_PAIRS = 300


@dataclass
class SpoofingGainResult:
    pairs: int = 0
    direct_covered: int = 0
    spoofed_covered: int = 0

    def direct_fraction(self) -> float:
        return self.direct_covered / max(1, self.pairs)

    def spoofed_fraction(self) -> float:
        return self.spoofed_covered / max(1, self.pairs)

    def gain(self) -> float:
        if self.direct_covered == 0:
            return float("inf") if self.spoofed_covered else 1.0
        return self.spoofed_covered / self.direct_covered


def measure_spoofing_gain(
    internet: Internet,
    seed: int = 0,
) -> SpoofingGainResult:
    """Reverse-hop coverage with and without spoofing (Appendix F).

    For each (source, RR-responsive destination) pair: does a direct
    RR ping from the source reveal reverse hops, and does a spoofed RR
    ping from the best-positioned vantage point?
    """
    import random as _random

    rng = _random.Random(seed ^ 0x5F00F)
    prober = Prober(internet)
    vps = list(internet.mlab_hosts)
    hosts = sorted(
        h.addr
        for h in internet.hosts.values()
        if h.responds_to_options and not h.is_vantage_point
    )
    rng.shuffle(hosts)
    result = SpoofingGainResult()
    for dst in hosts:
        if result.pairs >= SPOOFING_GAIN_PAIRS:
            break
        source = rng.choice(vps)
        result.pairs += 1
        direct = prober.rr_ping(source, dst, advance_clock=False)
        if direct.responded and direct.reverse_hops():
            result.direct_covered += 1
        for vp in vps:
            if vp == source:
                continue
            spoofed = prober.rr_ping(
                vp, dst, spoof_as=source, advance_clock=False
            )
            if spoofed.responded and spoofed.reverse_hops():
                result.spoofed_covered += 1
                break
    return result


def format_spoofing_gain(result: SpoofingGainResult) -> str:
    return "\n".join(
        [
            "Insight 1.3 — coverage with and without spoofing "
            "(Appendix F)",
            f"pairs tested: {result.pairs}",
            f"direct RR from the source: "
            f"{result.direct_fraction():.0%} "
            f"(paper {PAPER_DIRECT_COVERAGE:.0%})",
            f"spoofed RR from the best VP: "
            f"{result.spoofed_fraction():.0%} "
            f"(paper {PAPER_SPOOFED_COVERAGE:.0%})",
            f"gain: {result.gain():.1f}x (paper ~2.0x)",
        ]
    )
