"""Table 2: how often the penultimate traceroute hop is on the
reverse path (§4.4).

Methodology, mirroring the paper:

* targets are the /30 peers of SNMPv3-responsive router addresses
  (probing the other side of a point-to-point link likely traverses
  the responsive router);
* for each target R and a random M-Lab source S, spoofed RR probes
  reveal reverse hops from R toward S;
* the penultimate hop P of the forward traceroute S→R is classified:
  **on** the reverse path if P (or an alias, via SNMPv3) appears among
  the reverse hops; **not on** if P is SNMPv3-responsive (reliable
  alias ground truth) yet absent; **unknown** otherwise;
* rows split by whether the (P, R) link is intradomain or interdomain.

The paper finds intradomain links symmetric 90% of the time and
interdomain ones only 57% — the evidence behind Q5's abort policy.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.alias.snmp import SnmpResolver
from repro.core.symmetry import LinkType
from repro.experiments.common import Scenario
from repro.net.addr import Address, is_private, slash30_peer
from repro.probing.traceroute import paris_traceroute

#: Paper reference values (Table 2): P(on reverse | on+not on).
PAPER_INTRADOMAIN = 0.90
PAPER_INTERDOMAIN = 0.57
PAPER_ALL = 0.81

#: Sources each target is measured from.
SOURCES_PER_TARGET = 2


@dataclass
class SymmetryCounts:
    yes: int = 0
    no: int = 0
    unknown: int = 0

    def rate(self) -> Optional[float]:
        decided = self.yes + self.no
        if decided == 0:
            return None
        return self.yes / decided

    def total(self) -> int:
        return self.yes + self.no + self.unknown

    def fractions(self) -> Tuple[float, float, float]:
        total = max(1, self.total())
        return (
            self.yes / total,
            self.no / total,
            self.unknown / total,
        )


@dataclass
class Table2Result:
    intra: SymmetryCounts = field(default_factory=SymmetryCounts)
    inter: SymmetryCounts = field(default_factory=SymmetryCounts)
    paths_evaluated: int = 0

    @property
    def all_counts(self) -> SymmetryCounts:
        return SymmetryCounts(
            yes=self.intra.yes + self.inter.yes,
            no=self.intra.no + self.inter.no,
            unknown=self.intra.unknown + self.inter.unknown,
        )


def _targets_from_snmp(scenario: Scenario, limit: int) -> List[Address]:
    """The /30 peers of SNMPv3-responsive addresses (§4.4 dataset).

    Candidates are shuffled so the target population spans the whole
    hierarchy — edge access links vastly outnumber core links, exactly
    as in the Internet-wide SNMPv3 responder set the paper samples.
    """
    from repro.topology.asgraph import ASTier

    snmp = SnmpResolver(scenario.background_prober)
    rng = random.Random(scenario.seed ^ 0x5A47)
    internet = scenario.internet
    edge: List[Address] = []
    core: List[Address] = []
    for addr in sorted(internet.iface_owner):
        peer = slash30_peer(addr)
        if peer is None or peer not in internet.iface_owner:
            continue
        owner = internet.routers[internet.iface_owner[peer]]
        tier = internet.graph.nodes[owner.asn].tier
        (edge if tier is ASTier.STUB else core).append(addr)
    rng.shuffle(edge)
    rng.shuffle(core)
    # The Internet-wide SNMPv3 responder population is dominated by
    # edge/access links by orders of magnitude; sample accordingly.
    candidates = edge[: int(limit * 2)] + core[: max(1, limit // 8)]
    rng.shuffle(candidates)
    targets: List[Address] = []
    for addr in candidates:
        if len(targets) >= limit:
            break
        if snmp.engine_id(addr) is not None:
            targets.append(slash30_peer(addr))
    return targets


def _refined_mapper(scenario: Scenario):
    """An IP-to-AS mapper refined with bdrmapit-lite border overrides.

    The paper's intra/interdomain decision rests on a layered mapping
    that classifies border interfaces correctly far more often than
    naive prefix-origin lookup (Appendix B.2 validates it against
    bdrmapIT, which would change well under 1% of decisions). The
    refinement is computed from an offline traceroute corpus, exactly
    as bdrmapit would be.
    """
    from repro.asmap.bdrmapit import BdrmapitLite
    from repro.asmap.ip2as import IPToASMapper

    rng = random.Random(scenario.seed ^ 0xB0D)
    corpus = []
    destinations = list(scenario.responsive_destinations(300))
    # Ark probes every routed /24, so link interfaces show up as
    # traceroute destinations too; include a sample of them.
    ifaces = sorted(scenario.internet.iface_owner)
    rng.shuffle(ifaces)
    destinations += ifaces[:600]
    sources = scenario.atlas_vp_addrs + scenario.mlab_addrs
    for dst in destinations:
        src = rng.choice(sources)
        corpus.append(
            paris_traceroute(scenario.background_prober, src, dst)
        )
    mapper = IPToASMapper(scenario.internet)
    overrides = BdrmapitLite(mapper).infer(corpus)
    mapper.apply_overrides(overrides)
    return mapper


def run(
    scenario: Scenario,
    max_targets: int = 250,
) -> Table2Result:
    """Run the Table 2 study."""
    rng = random.Random(scenario.seed ^ 0x7AB2)
    prober = scenario.online_prober
    snmp = SnmpResolver(scenario.background_prober)
    selector = scenario.selector("revtr2.0")
    mapper = _refined_mapper(scenario)
    result = Table2Result()

    targets = _targets_from_snmp(scenario, max_targets)
    sources = scenario.sources()

    for target in targets:
        for source in rng.sample(
            sources, k=min(SOURCES_PER_TARGET, len(sources))
        ):
            reverse_hops = _reverse_hops(
                prober, selector, scenario, source, target
            )
            if not reverse_hops:
                continue
            trace = paris_traceroute(prober, source, target)
            hops = trace.responsive_hops()
            if not trace.reached or len(hops) < 2:
                continue
            penultimate = (
                hops[-2] if hops[-1] == target else hops[-1]
            )
            if penultimate == target:
                continue
            result.paths_evaluated += 1
            link = _classify(mapper, penultimate, target)
            counts = (
                result.intra if link is LinkType.INTRA else result.inter
            )
            verdict = _on_reverse_path(
                snmp, scenario.resolver, penultimate, reverse_hops
            )
            if verdict is True:
                counts.yes += 1
            elif verdict is False:
                counts.no += 1
            else:
                counts.unknown += 1
    return result


def _reverse_hops(
    prober, selector, scenario: Scenario, source: Address, target: Address
) -> List[Address]:
    """Reveal reverse hops with spoofed RR from the closest VPs.

    §4.4 explicitly uses the ingress-based VP selection so the
    destination stamp lands early and several reverse slots remain —
    a direct probe from the (distant) source would truncate the
    reverse path right after the target's own stamp.
    """
    best_hops: List[Address] = []
    for batch in selector.batches(target)[:3]:
        vps = [vp for vp in batch if vp != source]
        if not vps:
            continue
        results = prober.spoofed_rr_batch(vps, target, spoof_as=source)
        best = max(results, key=lambda r: len(r.reverse_hops()))
        if len(best.reverse_hops()) > len(best_hops):
            best_hops = best.reverse_hops()
        if len(best_hops) >= 2:
            return best_hops
    if not best_hops:
        result = prober.rr_ping(source, target)
        if result.responded:
            best_hops = result.reverse_hops()
    return best_hops


def _classify(
    mapper, penultimate: Address, target: Address
) -> LinkType:
    same = mapper.same_as(penultimate, target)
    if same is None:
        return LinkType.INTER
    return LinkType.INTRA if same else LinkType.INTER


def _on_reverse_path(
    snmp: SnmpResolver,
    resolver,
    penultimate: Address,
    reverse_hops: List[Address],
) -> Optional[bool]:
    """The paper's three-way verdict.

    "Yes" when the penultimate hop or an alias appears among the
    reverse hops; "no" only when reliable alias information exists for
    the penultimate hop (SNMPv3 engine id, or presence in the
    MIDAR-based ITDK dataset) and the reverse path visibly extends past
    the position where it would appear; "unknown" otherwise.
    """
    if penultimate in reverse_hops:
        return True
    peer = slash30_peer(penultimate)
    if peer is not None and peer in reverse_hops:
        return True
    engine = snmp.engine_id(penultimate)
    if engine is not None:
        for hop in reverse_hops:
            if snmp.engine_id(hop) == engine:
                return True
    if resolver is not None and resolver.can_resolve(penultimate):
        if any(
            resolver.aligned(hop, penultimate) for hop in reverse_hops
        ):
            return True
    if len(reverse_hops) < 2:
        # Only the target's own stamp fit in the option: the reverse
        # path is truncated before the hop in question could appear.
        return None
    if is_private(reverse_hops[1]):
        # The router adjacent to the target — where the penultimate
        # hop would appear — hid behind a private stamp; absence is
        # not conclusive.
        return None
    has_reliable_aliases = engine is not None or (
        resolver is not None and resolver.can_resolve(penultimate)
    )
    if not has_reliable_aliases:
        return None
    return False


def format_report(result: Table2Result) -> str:
    """Render the Table 2 rows with paper references."""
    lines = [
        "Table 2 — penultimate traceroute hop on the reverse path",
        f"paths evaluated: {result.paths_evaluated}",
        f"{'':14s}{'Yes':>8}{'No':>8}{'Unk':>8}{'Yes/(Y+N)':>12}{'paper':>8}",
    ]
    rows = [
        ("Intradomain", result.intra, PAPER_INTRADOMAIN),
        ("Interdomain", result.inter, PAPER_INTERDOMAIN),
        ("All", result.all_counts, PAPER_ALL),
    ]
    for name, counts, paper in rows:
        yes, no, unknown = counts.fractions()
        rate = counts.rate()
        rate_text = f"{rate:.2f}" if rate is not None else "n/a"
        lines.append(
            f"{name:14s}{yes:8.2f}{no:8.2f}{unknown:8.2f}"
            f"{rate_text:>12}{paper:8.2f}"
        )
    return "\n".join(lines)
