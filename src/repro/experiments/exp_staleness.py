"""Appendix D.2.2 / Fig. 9d: impact of atlas staleness over a day.

A 24-virtual-hour run: the atlas is built once, reverse traceroutes
run continuously, and the underlying routing churns (multihomed edge
networks flip their preferred provider — the dominant real-world
source of path change). Whenever a reverse traceroute intersects an
atlas traceroute, the traceroute is re-measured and compared:

* **no intersection** — the intersected hop is no longer on the fresh
  path (the paper's conservative case);
* **wrong AS path** — the AS-level path after the intersection changed.

The paper finds only 0.7% of reverse traceroutes intersect a stale
traceroute over a day.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional

from repro.core.result import RevtrStatus
from repro.experiments.common import Scenario
from repro.net.addr import Address
from repro.probing.traceroute import paris_traceroute

#: Paper headline: cumulative stale-intersection fraction after 24 h.
PAPER_STALE_FRACTION = 0.007

#: Hours at which a route preference flips.
CHURN_HOURS = (3, 7, 11, 15, 19, 22)

#: The study's length, and the sources it measures from.
HOURS = 24
N_SOURCES = 2


@dataclass
class HourBucket:
    revtrs: int = 0
    intersections: int = 0
    stale_no_intersection: int = 0
    stale_wrong_as_path: int = 0


@dataclass
class StalenessResult:
    hours: List[HourBucket]
    churn_events: List[int]

    def cumulative_stale_fraction(self) -> List[float]:
        """Per-hour cumulative fraction of revtrs hitting staleness."""
        fractions = []
        revtrs = stale = 0
        for bucket in self.hours:
            revtrs += bucket.revtrs
            stale += (
                bucket.stale_no_intersection
                + bucket.stale_wrong_as_path
            )
            fractions.append(stale / revtrs if revtrs else 0.0)
        return fractions

    def final_fraction(self) -> float:
        cumulative = self.cumulative_stale_fraction()
        return cumulative[-1] if cumulative else 0.0


def _flip_preference(scenario: Scenario, rng: random.Random) -> bool:
    """One churn event: a multihomed edge AS flips its preferred
    provider (a routine BGP policy change).

    Flips are sampled among edge networks that host atlas vantage
    points — the population whose changes can invalidate atlas
    traceroutes, which is the effect Fig. 9d quantifies.
    """
    internet = scenario.internet
    graph = internet.graph
    vp_asns = {
        internet.hosts[addr].asn for addr in internet.atlas_hosts
    }
    candidates = [
        asn
        for asn, node in graph.nodes.items()
        if node.neighbor_pref
        and len(node.providers()) >= 2
        and asn in vp_asns
    ]
    if not candidates:
        candidates = [
            asn
            for asn, node in graph.nodes.items()
            if node.neighbor_pref and len(node.providers()) >= 2
        ]
    if not candidates:
        return False
    asn = rng.choice(sorted(candidates))
    node = graph.nodes[asn]
    providers = sorted(node.providers())
    current = max(
        node.neighbor_pref, key=lambda n: node.neighbor_pref[n]
    )
    others = [p for p in providers if p != current]
    if not others:
        return False
    node.neighbor_pref.clear()
    node.neighbor_pref[rng.choice(others)] = 100
    scenario.internet.invalidate_routing()
    return True


def run(
    scenario: Scenario, revtrs_per_hour: int = 20
) -> StalenessResult:
    """Run the 24-hour staleness study."""
    rng = random.Random(scenario.seed ^ 0x57A1)
    clock = scenario.clock
    sources = scenario.sources(N_SOURCES)
    engines = {
        source: scenario.engine(source, "revtr2.0")
        for source in sources
    }
    destinations = scenario.responsive_destinations(
        options_only=True
    )
    start = clock.now()
    buckets = [HourBucket() for _ in range(HOURS)]
    churned: List[int] = []

    for hour in range(HOURS):
        hour_start = start + hour * 3600.0
        if clock.now() < hour_start:
            clock.advance_to(hour_start)
        if hour in CHURN_HOURS and _flip_preference(scenario, rng):
            churned.append(hour)
        bucket = buckets[hour]
        for _ in range(revtrs_per_hour):
            source = rng.choice(sources)
            dst = rng.choice(destinations)
            engine = engines[source]
            result = engine.measure(dst)
            if result.status is not RevtrStatus.COMPLETE:
                continue
            bucket.revtrs += 1
            vp = result.intersection_vp
            if vp is None:
                continue
            bucket.intersections += 1
            verdict = _check_staleness(scenario, engine, vp, result)
            if verdict == "no-intersection":
                bucket.stale_no_intersection += 1
            elif verdict == "wrong-as-path":
                bucket.stale_wrong_as_path += 1
    return StalenessResult(hours=buckets, churn_events=churned)


def _check_staleness(
    scenario: Scenario, engine, vp: Address, result
) -> Optional[str]:
    """Re-measure the intersected traceroute and compare (Fig. 9d)."""
    atlas = engine.atlas
    stored = atlas.traceroutes.get(vp)
    if stored is None:
        return None
    fresh = paris_traceroute(
        scenario.background_prober, vp, atlas.source
    )
    # Find the intersected hop: the first stored hop present in the
    # measured reverse path's addresses.
    reverse_addrs = set(result.addresses())
    intersect_index = None
    for index, hop in enumerate(stored.hops):
        if hop is not None and hop in reverse_addrs:
            intersect_index = index
            break
    if intersect_index is None:
        return None
    hop = stored.hops[intersect_index]
    fresh_hops = [h for h in fresh.hops if h is not None]
    if hop not in fresh_hops:
        return "no-intersection"
    stored_suffix = scenario.ip2as.collapsed_as_path(
        [h for h in stored.hops[intersect_index:] if h is not None]
    )
    fresh_suffix = scenario.ip2as.collapsed_as_path(
        fresh.hops[fresh.hops.index(hop):]
    )
    if stored_suffix != fresh_suffix:
        return "wrong-as-path"
    return None


def format_report(result: StalenessResult) -> str:
    lines = [
        "Fig 9d — reverse traceroutes intersecting a stale traceroute",
        f"churn events at hours: {result.churn_events}",
        f"{'hour':>5}{'revtrs':>8}{'intersects':>11}"
        f"{'stale-gone':>11}{'stale-AS':>9}{'cum-frac':>10}",
    ]
    cumulative = result.cumulative_stale_fraction()
    for hour, bucket in enumerate(result.hours):
        if hour % 4 and hour != len(result.hours) - 1:
            continue
        lines.append(
            f"{hour:5d}{bucket.revtrs:8d}{bucket.intersections:11d}"
            f"{bucket.stale_no_intersection:11d}"
            f"{bucket.stale_wrong_as_path:9d}"
            f"{cumulative[hour]:10.3f}"
        )
    lines.append(
        f"after 24h: {result.final_fraction():.3f} of revtrs hit a "
        f"stale traceroute (paper {PAPER_STALE_FRACTION:.3f})"
    )
    return "\n".join(lines)
