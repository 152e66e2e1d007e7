"""Ablation: the RR atlas (design question Q2).

The RR atlas registers the egress-side aliases a reverse traceroute
will actually see, so intersections fire sooner. The paper credits it
with 5.5% of the probing overhead and earlier completion. Here:
revtr 2.0 with and without the RR atlas, same everything else.
"""

from conftest import write_report

from repro.core.result import HopTechnique, RevtrStatus
# exp_comparison not needed: engines are driven directly


def test_ablation_rr_atlas(bench_scenario):
    def run_ablation():
        from repro.core.revtr import EngineConfig

        return {
            "with-rr-atlas": _run_variant(
                bench_scenario, EngineConfig(use_rr_atlas=True)
            ),
            "without-rr-atlas": _run_variant(
                bench_scenario, EngineConfig(use_rr_atlas=False)
            ),
        }

    stats = run_ablation()

    lines = [
        "Ablation — RR atlas (Q2)",
        f"{'variant':>18}{'probes':>9}{'intersected':>13}"
        f"{'coverage':>10}",
    ]
    for label, row in stats.items():
        lines.append(
            f"{label:>18}{row['probes']:9d}"
            f"{row['intersected']:13.2f}{row['coverage']:10.2f}"
        )
    lines.append(
        "(paper: the RR atlas finds more intersections sooner, saving "
        "5.5% of probing overhead)"
    )
    write_report("ablation_rr_atlas", "\n".join(lines))

    with_atlas = stats["with-rr-atlas"]
    without = stats["without-rr-atlas"]
    # The RR atlas can only help: more intersections, fewer probes.
    assert with_atlas["intersected"] >= without["intersected"]
    assert with_atlas["probes"] <= without["probes"] * 1.02


def _run_variant(scenario, config):
    import random

    from repro.core.atlas import TracerouteAtlas
    from repro.core.revtr import RevtrEngine
    from repro.core.rr_atlas import RRAtlas

    rng = random.Random(scenario.seed ^ 0xAB1)
    probes = list(scenario.atlas_vp_addrs)
    rng.shuffle(probes)
    half = max(1, len(probes) // 2)
    atlas_pool, dest_pool = probes[:half], probes[half:]
    sources = scenario.sources(3)
    pairs = [
        (rng.choice(dest_pool), rng.choice(sources))
        for _ in range(150)
    ]

    engines = {}
    for source in sources:
        atlas = TracerouteAtlas(source, max_size=scenario.atlas_size)
        atlas.build(
            scenario.background_prober,
            atlas_pool,
            scenario.bundle_rng(source),
            size=scenario.atlas_size,
        )
        rr_atlas = None
        if config.use_rr_atlas:
            rr_atlas = RRAtlas(atlas)
            rr_atlas.build(
                scenario.background_prober, scenario.spoofer_addrs
            )
        engines[source] = RevtrEngine(
            prober=scenario.online_prober,
            source=source,
            atlas=atlas,
            selector=scenario.selector("revtr2.0"),
            ip2as=scenario.ip2as,
            relationships=scenario.relationships,
            config=config,
            rr_atlas=rr_atlas,
            resolver=scenario.resolver,
            spoofers=scenario.spoofer_addrs,
        )

    probes_total = 0
    intersected = 0
    complete = 0
    for dst, src in pairs:
        result = engines[src].measure(dst)
        for kind in ("rr", "spoof-rr", "ts", "spoof-ts"):
            probes_total += result.probe_counts.get(kind, 0)
        if result.status is RevtrStatus.COMPLETE:
            complete += 1
            if any(
                h.technique is HopTechnique.INTERSECTION
                for h in result.hops
            ):
                intersected += 1
    return {
        "probes": probes_total,
        "intersected": intersected / max(1, complete),
        "coverage": complete / len(pairs),
    }
