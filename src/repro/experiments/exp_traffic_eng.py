"""§6.1 / Fig. 7: ingress traffic engineering with reverse traceroutes.

The PEERING case study, re-run on the simulator:

1. anycast a prefix from several sites and use reverse traceroutes to
   map which site each client lands at and through which transit;
2. find a transit carrying clients to a high-latency site and poison it
   on that site's announcement — the clients shift and their RTT drops
   (Fig. 7 left: the Cogent/UFMG→NEU move);
3. rebalance the load between a site's providers with no-export
   communities (Fig. 7 right: the Coloclue/BIT split).

Each reconfiguration costs 15 virtual minutes of BGP convergence plus
an atlas refresh, matching the paper's 9–13-minute measurement rounds
within ~30-minute iterations.

Substitution note: the paper monitors 15,300 ingress routers chosen by
client activity; we monitor a deterministic sample of responsive hosts
— the catchment/transit observables are identical.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.atlas import TracerouteAtlas
from repro.core.revtr import RevtrEngine
from repro.experiments.common import Scenario
from repro.net.addr import Address
from repro.te.engineering import CatchmentReport, TrafficEngineer
from repro.te.peering import PeeringTestbed

#: Anycast sites besides the source's own.
SITES = 2

@dataclass
class TERound:
    label: str
    report: CatchmentReport

    def summary(self) -> Dict[str, object]:
        return {
            "sites": self.report.site_shares(),
        }


@dataclass
class TEResult:
    rounds: List[TERound]
    poisoned_transit: Optional[int]
    shifted_share_before: float = 0.0
    shifted_share_after: float = 0.0
    #: destinations routed through the poisoned transit to the
    #: majority site, before/after the poisoning (absolute counts)
    majority_clients_before: int = 0
    majority_clients_after: int = 0
    rtt_before: float = 0.0
    rtt_after: float = 0.0
    no_export_pairs: Tuple[Tuple[int, int], ...] = ()
    provider_shares_before: Dict[int, float] = field(
        default_factory=dict
    )
    provider_shares_after: Dict[int, float] = field(
        default_factory=dict
    )


def _fresh_engine(
    scenario: Scenario, source: Address, tag: int
) -> RevtrEngine:
    """A revtr 2.0 engine with an atlas built under the *current*
    announcement (the per-round atlas refresh of §6.1)."""
    atlas = TracerouteAtlas(source, max_size=scenario.atlas_size)
    atlas.build(
        scenario.background_prober,
        scenario.atlas_vp_addrs,
        random.Random(scenario.seed ^ tag),
    )
    scenario.adopt_atlases(source, atlas)
    return scenario.engine(source, "revtr2.0")


def _entry_providers(report: CatchmentReport) -> Counter:
    """Which AS hands each measured path into its catchment site."""
    counts: Counter = Counter()
    for dst, transits in report.transits_of.items():
        if report.site_of.get(dst) is None:
            continue
        if transits:
            counts[transits[-1]] += 1
    return counts


def run(
    scenario: Scenario,
    n_monitors: int = 80,
) -> TEResult:
    """Run the full Fig. 7 engineering loop."""
    rng = random.Random(scenario.seed ^ 0x7E)
    internet = scenario.internet
    source = scenario.sources()[0]
    site_asns = [
        internet.hosts[addr].asn
        for addr in scenario.sources(SITES + 1)[1:]
    ]
    testbed = PeeringTestbed(internet)
    deployment = testbed.deploy(source, site_asns)
    engineer_tag = 0

    try:
        monitors = scenario.responsive_destinations(
            n_monitors, options_only=True
        )
        rounds: List[TERound] = []

        def measure(label: str) -> CatchmentReport:
            nonlocal engineer_tag
            engineer_tag += 1
            engine = _fresh_engine(scenario, source, engineer_tag)
            engineer = TrafficEngineer(
                testbed, engine, scenario.online_prober, scenario.ip2as
            )
            report = engineer.measure_round(deployment, monitors)
            rounds.append(TERound(label=label, report=report))
            return report

        baseline = measure("anycast baseline")

        # --- Fig. 7 left: steer a suboptimal transit's clients -------
        transit_rtt: Dict[int, List[float]] = {}
        transit_site: Dict[int, Counter] = {}
        for dst, transits in baseline.transits_of.items():
            site = baseline.site_of.get(dst)
            rtt = baseline.rtt_of.get(dst)
            if site is None or rtt is None:
                continue
            for transit in transits:
                transit_rtt.setdefault(transit, []).append(rtt)
                transit_site.setdefault(transit, Counter())[site] += 1
        candidates = [
            (sum(rtts) / len(rtts), transit)
            for transit, rtts in transit_rtt.items()
            if len(rtts) >= 3 and transit not in deployment.site_asns
        ]
        poisoned_transit: Optional[int] = None
        shifted_before = shifted_after = 0.0
        majority_before = majority_after = 0
        rtt_before = rtt_after = 0.0
        if candidates:
            _, poisoned_transit = max(candidates)
            majority_site = transit_site[poisoned_transit].most_common(
                1
            )[0][0]
            affected = baseline.destinations_through(poisoned_transit)
            majority_before = sum(
                1
                for dst in affected
                if baseline.site_of.get(dst) == majority_site
            )
            shifted_before = majority_before / max(1, len(affected))
            rtt_before = _mean_ping_rtt(scenario, source, affected)
            # Poison the transit on the majority site's announcement.
            deployment.poisoned = {
                majority_site: frozenset({poisoned_transit})
            }
            testbed.reannounce(deployment, clock=scenario.clock)

            after = measure(
                f"poisoned AS{poisoned_transit} at site "
                f"{majority_site}"
            )
            still_through = after.destinations_through(
                poisoned_transit
            )
            majority_after = sum(
                1
                for dst in still_through
                if after.site_of.get(dst) == majority_site
            )
            shifted_after = majority_after / max(
                1, len(still_through)
            )
            rtt_after = _mean_ping_rtt(scenario, source, affected)

        # --- Fig. 7 right: balance a site's providers ----------------
        # The paper needed several rounds: blocking Fusix made it
        # reroute through True (still via Coloclue), so a second
        # no-export was added. We iterate the same way: block the top
        # provider's biggest feeder, re-measure, repeat until the top
        # provider's entry share drops or we run out of rounds.
        report = rounds[-1].report
        providers_before = _entry_providers(report)
        providers_after = providers_before
        no_export_pairs: List[Tuple[int, int]] = []
        if providers_before:
            top_provider, top_count = providers_before.most_common(1)[
                0
            ]
            engineer = TrafficEngineer(
                testbed,
                _fresh_engine(scenario, source, 999),
                scenario.online_prober,
                scenario.ip2as,
            )
            current_report = report
            for _ in range(3):
                feeders: Counter = Counter()
                for dst, transits in current_report.transits_of.items():
                    transits = list(transits)
                    if top_provider in transits:
                        index = transits.index(top_provider)
                        if index > 0:
                            feeders[transits[index - 1]] += 1
                feeders = Counter(
                    {
                        asn: count
                        for asn, count in feeders.items()
                        if (top_provider, asn) not in no_export_pairs
                    }
                )
                if not feeders:
                    break
                feeder, _ = feeders.most_common(1)[0]
                no_export_pairs.append((top_provider, feeder))
                engineer.no_export(deployment, top_provider, feeder)
                balanced = measure(
                    f"no-export AS{top_provider}→AS{feeder}"
                )
                current_report = balanced
                providers_after = _entry_providers(balanced)
                new_count = providers_after.get(top_provider, 0)
                if new_count < top_count:
                    break

        def shares(counts: Counter) -> Dict[int, float]:
            total = sum(counts.values())
            if not total:
                return {}
            return {
                asn: count / total
                for asn, count in counts.most_common(6)
            }

        return TEResult(
            rounds=rounds,
            poisoned_transit=poisoned_transit,
            shifted_share_before=shifted_before,
            shifted_share_after=shifted_after,
            majority_clients_before=majority_before,
            majority_clients_after=majority_after,
            rtt_before=rtt_before,
            rtt_after=rtt_after,
            no_export_pairs=tuple(no_export_pairs),
            provider_shares_before=shares(providers_before),
            provider_shares_after=shares(providers_after),
        )
    finally:
        testbed.withdraw(deployment)


def _mean_ping_rtt(
    scenario: Scenario, source: Address, dests
) -> float:
    """Mean ping RTT from the anycast source to *dests* (seconds).

    Pings follow the current announcement: after a reconfiguration the
    reply path — and therefore the RTT — reflects the new catchments.
    """
    rtts = []
    for dst in dests:
        reply = scenario.online_prober.ping(source, dst)
        if reply is not None:
            rtts.append(reply.rtt)
    return sum(rtts) / len(rtts) if rtts else float("nan")


def format_report(result: TEResult) -> str:
    lines = ["Fig 7 — traffic engineering with revtr 2.0"]
    for te_round in result.rounds:
        shares = te_round.report.site_shares()
        rendered = ", ".join(
            f"AS{site}: {share:.0%}"
            for site, share in sorted(shares.items())
        )
        lines.append(f"  [{te_round.label}] catchments: {rendered}")
    if result.poisoned_transit is not None:
        lines.append(
            f"poisoned transit AS{result.poisoned_transit}: clients "
            f"reaching the majority site through it "
            f"{result.majority_clients_before} -> "
            f"{result.majority_clients_after} "
            f"({result.shifted_share_before:.0%} -> "
            f"{result.shifted_share_after:.0%} of its clients)"
        )
        lines.append(
            f"mean RTT of affected clients: "
            f"{result.rtt_before * 1000:.0f}ms -> "
            f"{result.rtt_after * 1000:.0f}ms "
            "(paper: -70 to -99 ms for Cogent clients)"
        )
    if result.no_export_pairs:
        lines.append(
            "no-export applied: "
            + ", ".join(
                f"AS{a}-/->AS{b}" for a, b in result.no_export_pairs
            )
        )
        lines.append(
            f"entry-provider shares before: "
            f"{_fmt_shares(result.provider_shares_before)}"
        )
        lines.append(
            f"entry-provider shares after:  "
            f"{_fmt_shares(result.provider_shares_after)}"
        )
        lines.append(
            "(paper: 91.2%:8.8% Coloclue:BIT -> 60.5%:39.5%)"
        )
    return "\n".join(lines)


def _fmt_shares(shares: Dict[int, float]) -> str:
    return ", ".join(
        f"AS{asn}: {share:.0%}" for asn, share in shares.items()
    )
