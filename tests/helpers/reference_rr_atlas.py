"""Reference RR-atlas build: one probe at a time, one ladder per
hop occurrence.

``RRAtlas.build`` probes each distinct hop address once and drives
whole retry rounds through ``Prober.rr_ping_batch``.  Until PR 17 it
also carried the loop it replaced, behind ``dedup=False,
batched=False``; that loop is kept here so
``tests/test_atlas_pipeline.py`` can require the same ``_mapping``, the
same per-occurrence probe count (``probes_sent + probes_deduped``) and
— ladder for ladder — the same virtual-clock cost.  Test-only: nothing
under ``src/`` imports it.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.core.rr_atlas import RRAtlas, RRBuildStats
from repro.net.addr import Address
from repro.probing.prober import LOSS_TIMEOUT, Prober, RRPingResult


def probe_ladders_serial(
    prober: Prober,
    source: Address,
    targets: Sequence[Address],
    spoofers: Sequence[Address],
) -> List[Tuple[Optional[RRPingResult], int, float]]:
    """One full retry ladder at a time: ``(last result, probes sent,
    virtual-clock cost)`` per target."""
    ladders = []
    for hop in targets:
        result = prober.rr_ping(source, hop)
        probes = 1
        cost = result.rtt if result.responded else LOSS_TIMEOUT
        if not RRAtlas._usable(result):
            for spoofer in spoofers:
                result = prober.rr_ping(spoofer, hop, spoof_as=source)
                probes += 1
                cost += (
                    result.rtt if result.responded else LOSS_TIMEOUT
                )
                if RRAtlas._usable(result):
                    break
        ladders.append((result, probes, cost))
    return ladders


def reference_build(
    rr_atlas: RRAtlas,
    prober: Prober,
    spoofer_vps: Sequence[Address],
    max_spoofers_per_hop: int = 2,
) -> None:
    """``RRAtlas.build`` without dedup or batching: every occurrence of
    a hop in an atlas traceroute climbs its own ladder, in atlas order;
    registration (``_register``) is the atlas's own."""
    source = rr_atlas.atlas.source
    occurrences = []
    for vp, trace in rr_atlas.atlas.traceroutes.items():
        for index, hop in enumerate(trace.hops):
            if hop is None or hop == source:
                continue
            occurrences.append((vp, index, hop, trace.hops))
    spoofers = list(spoofer_vps[:max_spoofers_per_hop])
    ladders = probe_ladders_serial(
        prober, source, [occ[2] for occ in occurrences], spoofers
    )

    stats = RRBuildStats(occurrences=len(occurrences))
    stats.units = len(ladders)
    for _, probes, cost in ladders:
        stats.probes_sent += probes
        stats.unit_costs.append(cost)
    rr_atlas.probes_sent += stats.probes_sent
    rr_atlas.last_build = stats

    for (vp, index, _, trace_hops), (result, _, _) in zip(
        occurrences, ladders
    ):
        if result is not None and RRAtlas._usable(result):
            rr_atlas._register(result, vp, index, trace_hops)
