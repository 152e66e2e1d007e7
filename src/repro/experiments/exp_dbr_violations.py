"""Appendix E: violations of destination-based routing.

Reverse Traceroute assumes each router forwards by destination only.
The study: spoofed RR pings reveal adjacent reverse-hop pairs (R, R');
a spoofed RR ping *to R* (same spoofed source) should traverse R'. If
it does not — and repeated probes show a *consistent* different next
hop rather than per-packet randomness (a load balancer) — R violates
destination-based routing. A violation "affects AS-level accuracy"
when the observed next hop maps to a different AS than R'.

Paper: 6.6% of (hop, source) tuples violate; 1.3% cause an AS
deviation (1.1% affecting revtr AS accuracy).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Set

from repro.experiments.common import Scenario
from repro.net.addr import Address, is_private, same_slash30

#: Paper reference values.
PAPER_VIOLATION_RATE = 0.066
PAPER_AS_AFFECTING_RATE = 0.013

#: Spoofed RR pings per (VP, destination) pair.
REPEATS = 3


@dataclass
class DBRResult:
    tuples_tested: int = 0
    load_balancers: int = 0
    violations: int = 0
    as_affecting: int = 0

    def violation_rate(self) -> float:
        if not self.tuples_tested:
            return 0.0
        return self.violations / self.tuples_tested

    def as_affecting_rate(self) -> float:
        if not self.tuples_tested:
            return 0.0
        return self.as_affecting / self.tuples_tested


def _next_hop_after(
    reverse_hops: List[Address], target_stamp: Optional[Address] = None
) -> Optional[Address]:
    """First public reverse hop after the probed hop's own stamp."""
    hops = reverse_hops[1:] if reverse_hops else []
    for hop in hops:
        if not is_private(hop):
            return hop
    return None


def _matches(a: Optional[Address], b: Optional[Address]) -> bool:
    if a is None or b is None:
        return False
    return a == b or same_slash30(a, b)


def run(
    scenario: Scenario,
    n_pairs: int = 300,
) -> DBRResult:
    """Run the Appendix E replication."""
    rng = random.Random(scenario.seed ^ 0xDB12)
    prober = scenario.online_prober
    selector = scenario.selector("revtr2.0")
    sources = scenario.sources()
    destinations = scenario.responsive_destinations(
        options_only=True
    )
    result = DBRResult()

    attempts = 0
    while result.tuples_tested < n_pairs and attempts < n_pairs * 4:
        attempts += 1
        source = rng.choice(sources)
        dst = rng.choice(destinations)

        hops = _reveal(prober, selector, source, dst)
        if len(hops) < 3:
            continue
        # Adjacent reverse-hop pairs (skip the destination's own stamp).
        pairs = [
            (hops[i], hops[i + 1])
            for i in range(1, len(hops) - 1)
            if not is_private(hops[i]) and not is_private(hops[i + 1])
        ]
        for r, r_next in pairs:
            if result.tuples_tested >= n_pairs:
                break
            observed: Set[Address] = set()
            for _ in range(REPEATS):
                probe_hops = _reveal(prober, selector, source, r)
                nxt = _next_hop_after(probe_hops)
                if nxt is not None:
                    observed.add(nxt)
            if not observed:
                continue
            result.tuples_tested += 1
            if any(_matches(o, r_next) for o in observed):
                continue  # destination-based, consistent
            if len(observed) > 1:
                # Multiple next hops across repeats: per-packet load
                # balancing of option-carrying packets, not a
                # violation (Fig. 10 of the paper).
                result.load_balancers += 1
                continue
            result.violations += 1
            nxt = next(iter(observed))
            asn_observed = scenario.ip2as.asn(nxt)
            asn_expected = scenario.ip2as.asn(r_next)
            if (
                asn_observed is not None
                and asn_expected is not None
                and asn_observed != asn_expected
            ):
                result.as_affecting += 1
    return result


def _reveal(prober, selector, source, target) -> List[Address]:
    """Reverse hops from target toward source via spoofed RR."""
    for batch in selector.batches(target)[:2]:
        vps = [vp for vp in batch if vp != source]
        if not vps:
            continue
        results = prober.spoofed_rr_batch(vps, target, spoof_as=source)
        best = max(results, key=lambda r: len(r.reverse_hops()))
        if best.reverse_hops():
            return best.reverse_hops()
    direct = prober.rr_ping(source, target)
    return direct.reverse_hops() if direct.responded else []


def format_report(result: DBRResult) -> str:
    return "\n".join(
        [
            "Appendix E — destination-based routing violations",
            f"tuples tested: {result.tuples_tested}",
            f"load balancers (excluded): {result.load_balancers}",
            f"violations: {result.violations} "
            f"({result.violation_rate():.1%}, paper "
            f"{PAPER_VIOLATION_RATE:.1%})",
            f"AS-affecting: {result.as_affecting} "
            f"({result.as_affecting_rate():.1%}, paper "
            f"{PAPER_AS_AFFECTING_RATE:.1%})",
        ]
    )
