"""The paper's evaluation as one table of claims.

Each row of `CLAIMS` is one table or figure: a zero-argument
``campaign`` that runs the measurement, a ``report`` that formats its
paper-vs-measured text, and a ``check`` that asserts the paper's
qualitative claim (who wins, by roughly what factor) on the same
result. ``benchmarks/test_claims.py`` runs every row and writes its
report to ``benchmarks/reports/<id>.txt``, so a
``pytest benchmarks/ --ignore=benchmarks/e2e`` run regenerates every
table and figure of the paper; ``make_experiments_md.py`` embeds the
reports in EXPERIMENTS.md in the order of the rows.

Heavy campaigns are computed once per process at evaluation scale and
shared by the rows that read them (`functools.cache`); every campaign
builds its own scenario, so a row writes the same bytes whichever
other rows ran before it.
"""

import functools
import os
import random
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Any, Callable

from repro.analysis.asymmetry import (
    path_length_distribution,
    positional_symmetry,
)
from repro.analysis.stats import mean, median
from repro.core.result import HopTechnique, RevtrStatus
from repro.core.revtr import EngineConfig, RevtrEngine
from repro.core.segcache import ReverseSegmentCache
from repro.experiments import (
    Scenario,
    exp_as_graph,
    exp_asymmetry,
    exp_atlas,
    exp_comparison,
    exp_completeness,
    exp_dbr_violations,
    exp_rr_responsiveness,
    exp_staleness,
    exp_symmetry_assumption,
    exp_traffic_eng,
    exp_vp_selection,
)
from repro.experiments.exp_symmetry_assumption import Table2Result
from repro.service.sources import build_atlas
from repro.topology import TopologyConfig, build_internet

#: Shared seed for the benchmark topology.
BENCH_SEED = 7

REPORT_DIR = os.path.join(os.path.dirname(__file__), "reports")


@dataclass(frozen=True)
class Claim:
    """One table or figure of the paper's evaluation."""

    #: The report's file name and the EXPERIMENTS.md section key.
    id: str
    #: The EXPERIMENTS.md section heading.
    title: str
    #: Runs the measurement and returns its result.
    campaign: Callable[[], Any]
    #: The paper-vs-measured text for the result.
    report: Callable[[Any], str]
    #: Asserts the paper's claim on the result.
    check: Callable[[Any], None]


def write_report(name: str, text: str) -> None:
    os.makedirs(REPORT_DIR, exist_ok=True)
    path = os.path.join(REPORT_DIR, f"{name}.txt")
    with open(path, "w") as handle:
        handle.write(text + "\n")
    print()
    print(text)


def fresh_scenario(seed: int = BENCH_SEED, atlas_size: int = 25):
    """A private evaluation-scale Internet.

    Every campaign gets its own scenario so results are deterministic
    regardless of which benchmarks run (shared simulators accumulate
    RNG/clock state and make reports order-dependent).
    """
    return Scenario(
        config=TopologyConfig.evaluation(seed=seed),
        seed=seed,
        atlas_size=atlas_size,
    )


@functools.cache
def run_comparison():
    """The §5.2 campaign (Table 4, Figs 5a/5b/5c, throughput)."""
    return exp_comparison.run(
        fresh_scenario(),
        n_pairs=400,
        n_sources=4,
        extra_ts_variants=True,
    )


@functools.cache
def run_asymmetry():
    """The §6.2 bidirectional campaign (Figs 8, 12, 13, 14, Table 7)."""
    return exp_asymmetry.run(
        fresh_scenario(), n_destinations=250, n_sources=4
    )


@functools.cache
def run_vp_selection():
    """The §5.3 VP-selection evaluation (Fig 6, Table 5)."""
    return exp_vp_selection.run(fresh_scenario(), max_prefixes=150)


@functools.cache
def run_atlas_study():
    """The Appendix D.2.1 atlas-selection study (Figs 9a/9b/9c)."""
    return exp_atlas.run(fresh_scenario(), n_sources=4)


@functools.cache
def run_rr_surveys():
    """The Appendix F epoch surveys (Table 6, Fig 11)."""
    return exp_rr_responsiveness.run(seed=BENCH_SEED)


def _merged(results):
    merged = Table2Result()
    for result in results:
        merged.paths_evaluated += result.paths_evaluated
        for field in ("yes", "no", "unknown"):
            for row in ("intra", "inter"):
                setattr(
                    getattr(merged, row),
                    field,
                    getattr(getattr(merged, row), field)
                    + getattr(getattr(result, row), field),
                )
    return merged


def run_table2():
    # Aggregate over two topologies: the per-seed sample is a few
    # hundred paths, so one seed's intra/inter split is noisy
    # (the paper aggregates 1.5M paths).
    return _merged(
        [
            exp_symmetry_assumption.run(
                fresh_scenario(seed=seed), max_targets=300
            )
            for seed in (BENCH_SEED, BENCH_SEED + 2)
        ]
    )


def check_table2(result):
    intra = result.intra.rate()
    inter = result.inter.rate()
    assert result.paths_evaluated > 150
    assert intra is not None and inter is not None
    # The paper's claim behind Q5: intradomain symmetry assumptions
    # are safer than interdomain ones.
    assert intra > inter
    assert intra >= 0.6


def run_table3():
    return exp_as_graph.run(fresh_scenario())


def check_table3(result):
    rows = {name: (corr, compl) for name, corr, compl, _ in result.rows()}
    # revtr gives correctness AND completeness; Atlas is correct but
    # sparse; forward+symmetric is complete but often wrong.
    assert rows["revtr2.0"][0] > rows["forward+symmetric"][0]
    assert rows["revtr2.0"][1] > 2.5 * rows["ripe-atlas"][1]
    assert rows["forward+symmetric"][0] < 0.85


def check_table4(comparison):
    totals = {
        variant: outcome.packet_counts()["total"]
        for variant, outcome in comparison.outcomes.items()
    }
    # revtr 2.0 sends a fraction of revtr 1.0's probes (paper: 26%).
    assert totals["revtr2.0"] < 0.6 * totals["revtr1.0"]
    # The ingress selection is the largest single saving (paper: 125K
    # of the 202K saved probes).
    spoofed = {
        variant: outcome.packet_counts()["spoof-rr"]
        for variant, outcome in comparison.outcomes.items()
    }
    assert spoofed["revtr1.0+ingress"] < spoofed["revtr1.0"]
    # Dropping TS removes all timestamp probes.
    assert (
        comparison.outcomes["revtr1.0+ingress+cache-TS"]
        .packet_counts()["ts"]
        == 0
    )


def check_table5(vp_selection):
    table = vp_selection.table5
    # The heuristics only add coverage, and the full stack approaches
    # the optimal (paper: 0.65 -> 0.70 -> 0.71 vs optimal 0.72).
    assert (
        table["ingress"]
        <= table["ingress+double-stamp"] + 1e-9
    )
    assert (
        table["ingress+double-stamp"]
        <= table["ingress+double-stamp+loop"] + 1e-9
    )
    assert (
        table["ingress+double-stamp+loop"]
        >= 0.85 * table["optimal"]
    )


def check_table6(rr_surveys):
    f16 = rr_surveys.surveys["2016"].fractions()
    f20 = rr_surveys.surveys["2020"].fractions()
    # Responsiveness is an endpoint property: stable across epochs
    # (paper: ping 77%/73%, RR 58%/57%).
    assert abs(f16["ping"] - f20["ping"]) < 0.15
    assert abs(f16["rr"] - f20["rr"]) < 0.1
    # Most RR-responsive destinations are within the 8-hop horizon in
    # 2020 (paper: 63%).
    assert f20["within8_of_rr"] >= 0.5


def check_table7(asymmetry):
    top = asymmetry.cone_scatter()[:10]
    assert top
    # The top of the ranking is dominated by transit networks (the
    # paper's top-10 is all tier-1/tier-2 transits).
    transit_like = sum(
        1
        for asn, _, _, tier in top
        if tier in ("tier1", "transit", "nren")
    )
    assert transit_like >= 6


def check_fig5a(comparison):
    acc10 = comparison.accuracy("revtr1.0")
    acc20 = comparison.accuracy("revtr2.0")
    assert len(acc20) > 50
    correct10 = sum(1 for c in acc10 if c.as_correct) / len(acc10)
    correct20 = sum(1 for c in acc20 if c.as_correct) / len(acc20)
    # revtr 2.0's AS paths are right (no wrong AS) at least as often
    # as revtr 1.0's, whose interdomain symmetry assumptions inject
    # wrong hops (paper: 92.3% vs 81.8% exact). A small tolerance
    # covers the paper's discrepancy cases (3)/(4): load balancing
    # and per-source forwarding give the reverse measurement a valid
    # path that differs from the direct traceroute's.
    assert correct20 >= correct10 - 0.03
    assert correct20 >= 0.85
    # The optimistic band sits above the resolved router fraction.
    router = median([c.router_fraction for c in acc20])
    optimistic = median(
        [c.router_fraction_optimistic for c in acc20]
    )
    assert optimistic >= router


def check_fig5b(comparison):
    coverage = {
        variant: outcome.coverage()
        for variant, outcome in comparison.outcomes.items()
    }
    # revtr 1.0 completes everything (it always assumes symmetry);
    # revtr 2.0 trades coverage for accuracy (paper: 78.1%).
    assert coverage["revtr1.0"] >= 0.99
    assert 0.55 <= coverage["revtr2.0"] <= 0.95
    # Timestamp adds only marginal coverage even with ground-truth
    # adjacencies (paper: +0.1% / +1.1%).
    assert (
        coverage["revtr2.0+TS"] - coverage["revtr2.0"] <= 0.15
    )
    assert coverage["revtr2.0+TS+truth"] >= coverage["revtr2.0"]


def check_fig5c(comparison):
    medians = {
        variant: outcome.median_duration()
        for variant, outcome in comparison.outcomes.items()
    }
    # revtr 2.0 is more than an order of magnitude faster than
    # revtr 1.0 (paper: 78 s -> 6 s), driven by fewer 10 s spoofed
    # batches thanks to ingress-based VP selection.
    assert medians["revtr2.0"] < medians["revtr1.0"] / 10
    assert medians["revtr1.0+ingress"] < medians["revtr1.0"]


def check_fig6a(vp_selection):
    means = {
        size: mean(vp_selection.batch_size_distribution(size))
        for size in (1, 3, 5)
    }
    optimal = mean(vp_selection.optimal_distribution())
    # Batches of 3 capture nearly all of what 5 gets (the paper's
    # reason for choosing 3), and sit close to optimal.
    assert means[1] <= means[3] + 1e-9
    assert means[5] - means[3] <= 0.25
    assert means[3] >= 0.85 * optimal


def check_fig6b(vp_selection):
    ingress = mean(vp_selection.first_batch_distribution("ingress"))
    legacy = mean(vp_selection.first_batch_distribution("revtr1.0"))
    optimal = mean(vp_selection.optimal_distribution())
    # The ingress technique is near-optimal and at least as good as
    # revtr 1.0's set cover (paper: 2.0 nearly optimal, 1.0 well
    # below).
    assert ingress >= legacy - 1e-9
    assert ingress >= 0.85 * optimal


def check_fig6c(vp_selection):
    ingress = mean(vp_selection.spoofers_distribution("ingress"))
    legacy = mean(vp_selection.spoofers_distribution("revtr1.0"))
    global_order = mean(vp_selection.spoofers_distribution("global"))
    # revtr 2.0 tries far fewer spoofers than either baseline
    # (paper: 10+ VPs for <5% of prefixes vs 28% for 1.0/Global).
    assert ingress < legacy
    assert ingress < global_order


def run_fig7_te():
    # A private scenario: the anycast deployment and announcement
    # changes must not leak into the other benchmarks.
    scenario = Scenario(
        config=TopologyConfig.evaluation(seed=9),
        seed=9,
        atlas_size=20,
    )
    return exp_traffic_eng.run(scenario, n_monitors=80)


def check_fig7_te(result):
    assert len(result.rounds) >= 2
    if result.poisoned_transit is not None:
        # Poisoning moved the transit's clients off the majority site
        # (absolute counts: the measurement noise of the handful of
        # paths that still mention the transit does not matter).
        assert (
            result.majority_clients_after
            < result.majority_clients_before
        )
    if result.no_export_pairs:
        target = result.no_export_pairs[0][0]
        before = result.provider_shares_before.get(target, 0.0)
        after = result.provider_shares_after.get(target, 0.0)
        # The no-export community reduced the top provider's share
        # (paper: 91.2% -> 60.5%).
        assert after < before


def check_fig8a(asymmetry):
    assert len(asymmetry.records) > 100
    symmetric = asymmetry.as_symmetric_fraction()
    # Roughly half of paths are asymmetric even at AS granularity
    # (paper: 53% symmetric).
    assert 0.35 <= symmetric <= 0.75
    router = asymmetry.router_symmetry_values()
    # Router-level sharing is well below 1 (paper: median 0.28, with
    # an alias-corrected optimistic bound of 0.68 — our simulator has
    # near-complete alias knowledge so we sit near the bound).
    assert median(router) < 0.9


def check_fig8b(asymmetry):
    points = asymmetry.cone_scatter()
    assert points
    # Large-cone networks are frequently part of the asymmetry
    # (paper: tier-1s occur on many asymmetric paths): the mean
    # prevalence of big-cone ASes exceeds that of tiny-cone ones.
    big = [p[2] for p in points if p[1] >= 10]
    small = [p[2] for p in points if p[1] < 10]
    if big and small:
        assert sum(big) / len(big) >= sum(small) / len(small)


def check_fig9a(atlas_study):
    sizes = sorted(atlas_study.random_curve)
    assert len(sizes) >= 3
    # Diminishing returns: most of the value arrives early (the paper's
    # justification for a 1000-traceroute atlas instead of 5000).
    first, mid, last = (
        atlas_study.random_curve[sizes[0]],
        atlas_study.random_curve[sizes[len(sizes) // 2]],
        atlas_study.random_curve[sizes[-1]],
    )
    assert mid >= first
    assert last - mid <= mid - first + 0.05
    # Random selection is close to the greedy oracle at the operating
    # sizes (paper: random@1000 provides 89% of the optimal savings;
    # at very small atlases the oracle's head start is naturally
    # larger).
    assert (
        atlas_study.random_curve[sizes[-1]]
        >= 0.85 * atlas_study.optimal_curve[sizes[-1]]
    )
    mid_size = sizes[len(sizes) // 2]
    assert (
        atlas_study.random_curve[mid_size]
        >= 0.6 * atlas_study.optimal_curve[mid_size]
    )


def check_fig9b(atlas_study):
    curve = atlas_study.convergence
    assert len(curve) >= 5
    # After a few replacement iterations the random atlas performs at
    # least as well as it started, and reaches the oracle's
    # neighbourhood (paper: 5 iterations to optimal).
    start = curve[0]
    settled = sum(curve[4:]) / len(curve[4:])
    assert settled >= start - 0.02
    assert settled >= 0.8 * atlas_study.convergence_optimal


def check_fig9c(atlas_study):
    scaling = atlas_study.scaling
    counts = sorted(scaling)
    assert len(counts) >= 3
    # The mean intersected fraction decreases only slowly with the
    # number of reverse traceroutes (paper: <1% from 1k to 9k; our
    # samples are two orders of magnitude smaller, so allow noise).
    assert scaling[counts[-1]] >= scaling[counts[0]] - 0.15


def run_fig9d():
    # A private scenario: the 24-hour run churns routing preferences,
    # which must not leak into the other benchmarks.
    scenario = Scenario(
        config=TopologyConfig.evaluation(seed=21),
        seed=21,
        atlas_size=25,
    )
    return exp_staleness.run(scenario, revtrs_per_hour=15)


def check_fig9d(result):
    fractions = result.cumulative_stale_fraction()
    assert len(fractions) == 24
    # Staleness stays a small minority effect over the day
    # (paper: 0.7% after 24 h; ours is higher in absolute terms
    # because the atlas is ~50x smaller, so each churned traceroute
    # weighs more).
    assert fractions[-1] <= 0.15
    total_revtrs = sum(b.revtrs for b in result.hours)
    assert total_revtrs > 100
    # A stale verdict is one of the hour's intersections, and an
    # intersection one of its complete reverse traceroutes.
    stale = [
        b.stale_no_intersection + b.stale_wrong_as_path
        for b in result.hours
    ]
    for bucket, n_stale in zip(result.hours, stale):
        assert n_stale <= bucket.intersections <= bucket.revtrs
    # No route has changed before the first churn event, so a stale
    # verdict there is a false positive of the staleness check.
    first_churn = (result.churn_events or [len(result.hours)])[0]
    assert not any(stale[:first_churn])


def check_fig11(rr_surveys):
    f16 = rr_surveys.surveys["2016"].fractions()
    f20 = rr_surveys.surveys["2020"].fractions()
    restricted = rr_surveys.surveys["2020-with-2016-vps"].fractions()
    # Destinations moved closer to VPs between the epochs
    # (paper: within 4 hops 16% -> 39%), and part of the shift
    # persists even with the 2016-sized VP fleet (flattening).
    assert f20["within4_of_rr"] > f16["within4_of_rr"]
    assert (
        restricted["within8_of_rr"] >= f16["within8_of_rr"] - 0.05
    )


def check_fig12(asymmetry):
    full = asymmetry.as_symmetric_fraction()
    subset = asymmetry.as_symmetric_fraction(
        exclude_assumptions=True
    )
    # Excluding intradomain symmetry assumptions barely changes the
    # result (paper: within ~3%) — the assumptions are benign.
    assert abs(full - subset) <= 0.12


def check_fig13(asymmetry):
    pairs = asymmetry.as_pairs()
    symmetric = path_length_distribution(pairs, symmetric=True)
    asymmetric = path_length_distribution(pairs, symmetric=False)
    assert symmetric and asymmetric
    # Symmetric paths are shorter on average (paper Fig 13).
    assert mean(symmetric) < mean(asymmetric)


def check_fig14(asymmetry):
    pairs = asymmetry.as_pairs()
    dipped = 0
    checked = 0
    for length in (3, 4, 5, 6):
        profile = positional_symmetry(pairs, length)
        if len(profile) < 3:
            continue
        checked += 1
        interior = profile[1:-1]
        # Mid-path hops are less likely to be on the reverse path than
        # the endpoints (paper Fig 14's dip).
        if min(interior) <= min(profile[0], profile[-1]):
            dipped += 1
    assert checked >= 2
    assert dipped >= checked - 1


def run_appx_e():
    return exp_dbr_violations.run(fresh_scenario(), n_pairs=400)


def check_appx_e(result):
    assert result.tuples_tested >= 200
    # Violations are a small minority (paper: 6.6%)...
    assert result.violation_rate() <= 0.15
    # ...and AS-affecting ones rarer still (paper: 1.3%).
    assert result.as_affecting_rate() <= result.violation_rate()
    assert result.as_affecting_rate() <= 0.05


def run_spoof_gain():
    internet = build_internet(
        TopologyConfig.evaluation(seed=BENCH_SEED)
    )
    return exp_rr_responsiveness.measure_spoofing_gain(
        internet, seed=BENCH_SEED
    )


def check_spoof_gain(result):
    assert result.pairs >= 200
    # Spoofing roughly doubles reverse-hop coverage (paper: 32% -> 63%).
    assert result.spoofed_fraction() > result.direct_fraction()
    assert result.gain() >= 1.4


def run_per_source():
    scenario = fresh_scenario(seed=15)
    return exp_completeness.run(scenario)


def check_per_source(result):
    # Every source covers a substantial share of the AS-level
    # Internet, and no source is cloaked (paper: even the worst M-Lab
    # source reaches 26% of ASes).
    assert result.overall_fraction() >= 0.4
    assert result.worst_fraction() >= 0.2
    # The fleet together sees more than any single source.
    assert result.overall_fraction() >= result.median_fraction()


def check_throughput(comparison):
    projections = {
        p.variant: p
        for p in exp_comparison.throughput_projections(comparison)
    }
    # revtr 2.0 sustains an order of magnitude more measurements than
    # revtr 1.0 on the same fleet (paper: 173/s vs 4/s, a 43x gap).
    assert (
        projections["revtr2.0"].revtrs_per_second
        > 5 * projections["revtr1.0"].revtrs_per_second
    )
    # Scaled to the paper's 146-site fleet, revtr 2.0 clears the §3
    # goal of 13.1M measurements per day.
    at_scale = projections["revtr2.0"].scaled_to(146)
    assert at_scale.revtrs_per_day > 13_100_000


SEGCACHE_SEED = 11
N_DESTINATIONS = 25
PASSES = 6


def _run_stream(amortized):
    """Per-pass ``(virtual_seconds, probes)`` rows plus the first- and
    final-pass results of one arm, on its own scenario.

    The direct arm is the paper's engine, one destination at a time.
    The amortized arm is wired as the service wires an engine: a
    segment cache of the source's own, one ``measure_many`` per pass.
    It is built on the scenario's atlases rather than taken from a
    service, whose bootstrap measures the same atlas again: both arms then
    start from one atlas, so the warm-up cost and the ground-truth
    comparison set cache against no cache, not atlas against atlas.
    """
    scenario = Scenario(
        config=TopologyConfig.large(seed=SEGCACHE_SEED),
        seed=SEGCACHE_SEED,
        atlas_size=40,
    )
    source = scenario.sources()[0]
    if amortized:
        rr_atlas = scenario.rr_atlas(source)
        engine = RevtrEngine(
            prober=scenario.online_prober,
            source=source,
            atlas=scenario.bundle(source).atlas,
            selector=scenario.selector("revtr2.0"),
            ip2as=scenario.ip2as,
            relationships=scenario.relationships,
            rr_atlas=rr_atlas,
            resolver=scenario.resolver,
            spoofers=scenario.spoofer_addrs,
            segcache=ReverseSegmentCache(scenario.clock, scenario.internet),
        )
    else:
        engine = scenario.engine(source, "revtr2.0")
    destinations = scenario.responsive_destinations(
        N_DESTINATIONS, options_only=True
    )
    clock, counter = engine.prober.clock, engine.prober.counter
    rows, first, final = [], None, None
    for _ in range(PASSES):
        virtual0, mark = clock.now(), counter.mark()
        if amortized:
            final = engine.measure_many(destinations)
        else:
            final = [engine.measure(dst) for dst in destinations]
        rows.append(
            (clock.now() - virtual0, sum(counter.delta(mark).values()))
        )
        if first is None:
            first = final
    return scenario, destinations, rows, first, final


def _truth_precision(internet, result, truth_routers):
    """Fraction of a result's router hops on the true reverse path.

    Endpoint placeholders are excluded; hop addresses (any interface
    of a router — RR stamps, loopbacks) are resolved to router ids so
    alias differences do not count as errors.
    """
    mapped = on_path = 0
    for hop in result.hops:
        if hop.technique in (
            HopTechnique.DESTINATION,
            HopTechnique.SOURCE,
        ):
            continue
        router_id = internet.iface_owner.get(hop.addr)
        if router_id is None:
            continue
        mapped += 1
        on_path += router_id in truth_routers
    return on_path / mapped if mapped else 1.0


def _path_of(result):
    return [(str(hop.addr), hop.technique.value) for hop in result.hops]


def run_segcache():
    """§5 serving amortization: the segment cache on a repeated stream.

    The deployment re-measures popular destinations continuously (M-Lab
    clients, CDN prefixes). Two identically seeded large-topology
    scenarios run the same destinations pass after pass: the paper's
    engine, and one given a segment cache that measures each pass as one
    ``measure_many`` group, as the service does. The first pass is the warm-up (the cache is cold; that it changes nothing
    is ``tests/test_segcache.py``'s ``TestFlagsOffByteIdentity``); the
    claim is about the passes after it, counted in virtual seconds and
    probes — the deployed system is bound by probe RTTs and spoofed-batch
    timeouts, not CPU, so the report carries no wall-clock reading.
    """
    default, amortized = (
        _run_stream(amortized=False), _run_stream(amortized=True)
    )
    _, destinations, base_rows, base_first, _ = default
    scenario, _, fast_rows, _, fast_final = amortized
    internet = scenario.internet

    # Every result served entirely from the cache (zero probes: a
    # whole-path splice, or a remembered abort) against the
    # from-scratch measurement of the same destination, both scored on
    # the true reverse path: [served, accurate, exact] per kind.
    served = {"whole-path splices": [0, 0, 0], "remembered aborts": [0, 0, 0]}
    for dst, result, direct in zip(destinations, fast_final, base_first):
        if sum(result.probe_counts.values()):
            continue
        tally = served[
            "whole-path splices"
            if result.status is RevtrStatus.COMPLETE
            else "remembered aborts"
        ]
        truth = set(internet.ground_truth_router_path(dst, result.src))
        tally[0] += 1
        tally[1] += _truth_precision(
            internet, result, truth
        ) >= _truth_precision(internet, direct, truth)
        tally[2] += _path_of(result) == _path_of(direct)

    base_virtual, base_probes = map(sum, zip(*base_rows[1:]))
    fast_virtual, fast_probes = map(sum, zip(*fast_rows[1:]))
    return SimpleNamespace(
        internet=internet,
        base_rows=base_rows,
        fast_rows=fast_rows,
        base_virtual=base_virtual,
        base_probes=base_probes,
        fast_virtual=fast_virtual,
        fast_probes=fast_probes,
        served=served,
    )


def format_segcache(stream):
    internet, base_rows, fast_rows = (
        stream.internet, stream.base_rows, stream.fast_rows
    )
    base_virtual, base_probes = stream.base_virtual, stream.base_probes
    fast_virtual, fast_probes = stream.fast_virtual, stream.fast_probes
    n_steady = N_DESTINATIONS * (PASSES - 1)
    lines = [
        "Serving amortization — segment cache on a repeated stream",
        f"workload: {N_DESTINATIONS} destinations x {PASSES} passes, "
        f"large topology (ASes: {len(internet.graph)}, routers: "
        f"{len(internet.routers)})",
        f"{'':>24}{'virtual s':>11}{'probes':>8}{'revtr/virtual s':>17}",
    ]
    for label, virtual, probes, n in (
        ("warm-up  default", *base_rows[0], N_DESTINATIONS),
        ("warm-up  amortized", *fast_rows[0], N_DESTINATIONS),
        ("steady   default", base_virtual, base_probes, n_steady),
        ("steady   amortized", fast_virtual, fast_probes, n_steady),
    ):
        rate = n / virtual if virtual else float("inf")
        lines.append(f"{label:>24}{virtual:11.1f}{probes:8d}{rate:17.2f}")
    lines.append(
        f"steady state ({n_steady} measurements): default "
        f"{base_virtual:.1f} virtual s / {base_probes} probes, amortized "
        f"{fast_virtual:.1f} / {fast_probes}"
    )
    for kind, (n, accurate, exact) in stream.served.items():
        lines.append(
            f"{kind}: {n}/{N_DESTINATIONS} of the last pass; "
            f"{accurate}/{n} at or above the direct measurement's "
            f"ground-truth precision, {exact} hop-for-hop equal to it"
        )
    lines.append(
        "(paper: the deployment serves popular destinations "
        "continuously; §5 amortizes probing across them)"
    )
    return "\n".join(lines)


def check_segcache(stream):
    # A cold cache only observes: the warm-up pass costs the same.
    assert stream.fast_rows[0][1] <= stream.base_rows[0][1]
    # Steady state: at least twice the measurements per virtual second
    # (compared by multiplication: the amortized side may take none),
    # for fewer probes.
    assert stream.base_virtual >= 2.0 * stream.fast_virtual
    assert stream.fast_probes < stream.base_probes
    # A path served from the cache is never less accurate than one
    # measured from scratch.
    assert stream.served["whole-path splices"][0] > 0
    for n, accurate, _ in stream.served.values():
        assert accurate == n


def _campaign_stats(scenario, atlas_size, n_pairs=150):
    campaign = exp_comparison.run(
        scenario,
        n_pairs=n_pairs,
        n_sources=3,
        variants=("revtr2.0",),
        atlas_size=atlas_size,
    )
    outcome = campaign.outcomes["revtr2.0"]
    counts = outcome.packet_counts()
    complete = [
        r for r in outcome.results if r.status.value == "complete"
    ]
    atlas_share = (
        sum(r.atlas_fraction() for r in complete) / len(complete)
        if complete
        else 0.0
    )
    return {
        "probes": counts["total"],
        "coverage": outcome.coverage(),
        "atlas_share": atlas_share,
    }


def run_ablation_atlas():
    """Ablation: atlas size (design question Q1, end to end).

    The paper argues 1000 random traceroutes per source capture most of
    the value of 5000. Here the ablation is end-to-end: the same reverse
    traceroutes measured with no atlas, a small atlas, and the full-size
    atlas — probes per measurement must fall and the atlas-provided hop
    share must rise.
    """
    scenario = fresh_scenario()
    return {
        size: _campaign_stats(scenario, size)
        for size in (0, 8, 25)
    }


#: Paper: share of reverse-path hops the traceroute atlas provides.
PAPER_ATLAS_HOP_SHARE = 0.56


def format_ablation_atlas(stats):
    lines = [
        "Ablation — atlas size (Q1)",
        f"{'atlas size':>11}{'probes':>9}{'coverage':>10}"
        f"{'atlas share':>13}",
    ]
    for size, row in stats.items():
        lines.append(
            f"{size:11d}{row['probes']:9d}{row['coverage']:10.2f}"
            f"{row['atlas_share']:13.2f}"
        )
    lines.append(
        f"(paper: the atlas provides {PAPER_ATLAS_HOP_SHARE:.0%} of hops "
        "and intersections cut probing; most value arrives at modest "
        "sizes)"
    )
    return "\n".join(lines)


def check_ablation_atlas(stats):
    # A bigger atlas provides more hops and never costs more probes.
    assert stats[25]["atlas_share"] > stats[0]["atlas_share"]
    assert stats[25]["probes"] <= stats[0]["probes"]
    # Most of the value arrives by the small size (diminishing returns).
    gain_small = stats[8]["atlas_share"] - stats[0]["atlas_share"]
    gain_big = stats[25]["atlas_share"] - stats[8]["atlas_share"]
    assert gain_small >= gain_big - 0.05


def _run_variant(scenario, config):
    # Engines are driven directly, not through exp_comparison.
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
        atlas, _ = build_atlas(
            scenario.background_prober,
            source,
            atlas_pool,
            scenario.atlas_size,
            scenario.seed,
        )
        scenario.adopt_atlases(source, atlas)
        engines[source] = scenario.engine(source, "revtr2.0", config)

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


def run_ablation_rr_atlas():
    """Ablation: the RR atlas (design question Q2).

    The RR atlas registers the egress-side aliases a reverse traceroute
    will actually see, so intersections fire sooner. The paper credits it
    with 5.5% of the probing overhead and earlier completion. Here:
    revtr 2.0 with and without the RR atlas, same everything else.
    """
    scenario = fresh_scenario()
    return {
        "with-rr-atlas": _run_variant(
            scenario, EngineConfig(use_rr_atlas=True)
        ),
        "without-rr-atlas": _run_variant(
            scenario, EngineConfig(use_rr_atlas=False)
        ),
    }


#: Paper: share of the probing overhead the RR atlas saves.
PAPER_RR_ATLAS_SAVING = 0.055


def format_ablation_rr_atlas(stats):
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
        f"{PAPER_RR_ATLAS_SAVING:.1%} of probing overhead)"
    )
    return "\n".join(lines)


def check_ablation_rr_atlas(stats):
    with_atlas = stats["with-rr-atlas"]
    without = stats["without-rr-atlas"]
    # The RR atlas can only help: more intersections, fewer probes.
    assert with_atlas["intersected"] >= without["intersected"]
    assert with_atlas["probes"] <= without["probes"] * 1.02


def run_scale():
    """Scale check: the simulator at ~500 ASes.

    Not a paper figure: a large Internet builds, and a stream of revtr 2.0
    measurements over it completes in the expected proportion. How fast
    it runs is ``benchmarks/e2e``'s question (its workloads use this
    topology).
    """
    scenario = Scenario(
        config=TopologyConfig.large(seed=11), seed=11, atlas_size=40
    )
    source = scenario.sources()[0]
    engine = scenario.engine(source, "revtr2.0")
    destinations = scenario.responsive_destinations(
        400, options_only=True
    )

    state = {"complete": 0, "total": 0}
    for dst in destinations[:200]:
        result = engine.measure(dst)
        state["total"] += 1
        if result.status is RevtrStatus.COMPLETE:
            state["complete"] += 1
    return scenario.internet, state


def format_scale(stream):
    internet, state = stream
    return "\n".join(
        [
            "Scale benchmark — large topology",
            f"ASes: {len(internet.graph)}  routers: "
            f"{len(internet.routers)}  hosts: {len(internet.hosts)}",
            f"measurements: {state['total']}  complete: "
            f"{state['complete']}",
        ]
    )


def check_scale(stream):
    _, state = stream
    assert state["complete"] >= 0.3 * state["total"]


#: One row per table or figure, in EXPERIMENTS.md's section order.
CLAIMS = (
    Claim(
        "table2",
        "Table 2 — symmetry of penultimate traceroute hops (§4.4)",
        run_table2, exp_symmetry_assumption.format_report, check_table2,
    ),
    Claim(
        "table3",
        "Table 3 — reverse AS graph correctness & completeness (§5.1)",
        run_table3, exp_as_graph.format_report, check_table3,
    ),
    Claim(
        "table4",
        "Table 4 — probe counts across the component ladder (§5.2.4)",
        run_comparison, exp_comparison.format_table4, check_table4,
    ),
    Claim(
        "fig5a",
        "Figure 5a — accuracy vs direct traceroutes (§5.2.2)",
        run_comparison, exp_comparison.format_fig5a, check_fig5a,
    ),
    Claim(
        "fig5b",
        "Figure 5b — coverage and TS ablations (§5.2.3, Appendix D.1)",
        run_comparison, exp_comparison.format_fig5b, check_fig5b,
    ),
    Claim(
        "fig5c",
        "Figure 5c — per-measurement latency (§5.2.4)",
        run_comparison, exp_comparison.format_fig5c, check_fig5c,
    ),
    Claim(
        "table5",
        "Table 5 — VP-in-range fraction per technique (§5.3)",
        run_vp_selection, exp_vp_selection.format_table5, check_table5,
    ),
    Claim(
        "fig6a",
        "Figure 6a — reverse hops vs batch size (§5.3)",
        run_vp_selection, exp_vp_selection.format_fig6, check_fig6a,
    ),
    Claim(
        "fig6b",
        "Figure 6b — reverse hops per selection technique (§5.3)",
        run_vp_selection, exp_vp_selection.format_fig6, check_fig6b,
    ),
    Claim(
        "fig6c",
        "Figure 6c — spoofers tried per prefix (§5.3)",
        run_vp_selection, exp_vp_selection.format_fig6, check_fig6c,
    ),
    Claim(
        "table6",
        "Table 6 — RR responsiveness per epoch (Appendix F)",
        run_rr_surveys, exp_rr_responsiveness.format_table6, check_table6,
    ),
    Claim(
        "fig11",
        "Figure 11 — RR distance from the closest VP (Appendix F)",
        run_rr_surveys, exp_rr_responsiveness.format_fig11, check_fig11,
    ),
    Claim(
        "fig7_te",
        "Figure 7 — traffic-engineering case study (§6.1)",
        run_fig7_te, exp_traffic_eng.format_report, check_fig7_te,
    ),
    Claim(
        "fig8a",
        "Figure 8a — Internet path asymmetry (§6.2)",
        run_asymmetry, exp_asymmetry.format_fig8a, check_fig8a,
    ),
    Claim(
        "fig8b",
        "Figure 8b — asymmetry vs customer cone (§6.2)",
        run_asymmetry, exp_asymmetry.format_fig8b_table7, check_fig8b,
    ),
    Claim(
        "table7",
        "Table 7 — ASes most involved in asymmetry (§6.2)",
        run_asymmetry, exp_asymmetry.format_fig8b_table7, check_table7,
    ),
    Claim(
        "fig12",
        "Figure 12 — symmetry without assumptions (Appendix G.1)",
        run_asymmetry, exp_asymmetry.format_fig12, check_fig12,
    ),
    Claim(
        "fig13",
        "Figure 13 — path length vs symmetry (Appendix G.2)",
        run_asymmetry, exp_asymmetry.format_fig13, check_fig13,
    ),
    Claim(
        "fig14",
        "Figure 14 — positional symmetry profile (Appendix G.2)",
        run_asymmetry, exp_asymmetry.format_fig14, check_fig14,
    ),
    Claim(
        "fig9a",
        "Figure 9a — atlas savings vs size (Appendix D.2.1)",
        run_atlas_study, exp_atlas.format_report, check_fig9a,
    ),
    Claim(
        "fig9b",
        "Figure 9b — Random++ convergence (Appendix D.2.1)",
        run_atlas_study, exp_atlas.format_report, check_fig9b,
    ),
    Claim(
        "fig9c",
        "Figure 9c — savings vs number of revtrs (Appendix D.2.1)",
        run_atlas_study, exp_atlas.format_report, check_fig9c,
    ),
    Claim(
        "fig9d",
        "Figure 9d — staleness over a day (Appendix D.2.2)",
        run_fig9d, exp_staleness.format_report, check_fig9d,
    ),
    Claim(
        "appx_e",
        "Appendix E — destination-based routing violations",
        run_appx_e, exp_dbr_violations.format_report, check_appx_e,
    ),
    Claim(
        "spoof_gain",
        "Insight 1.3 — coverage with and without spoofing (Appendix F)",
        run_spoof_gain,
        exp_rr_responsiveness.format_spoofing_gain,
        check_spoof_gain,
    ),
    Claim(
        "per_source",
        "§5.1 — per-source completeness",
        run_per_source, exp_completeness.format_report, check_per_source,
    ),
    Claim(
        "throughput",
        "Throughput projection (§5.2.4, §3 goals)",
        run_comparison, exp_comparison.format_throughput, check_throughput,
    ),
    Claim(
        "segcache",
        "Serving amortization — segment cache on a repeated stream (§5)",
        run_segcache, format_segcache, check_segcache,
    ),
    Claim(
        "ablation_atlas",
        "Ablation — atlas size (design question Q1)",
        run_ablation_atlas, format_ablation_atlas, check_ablation_atlas,
    ),
    Claim(
        "ablation_rr_atlas",
        "Ablation — the RR atlas (design question Q2)",
        run_ablation_rr_atlas,
        format_ablation_rr_atlas,
        check_ablation_rr_atlas,
    ),
    Claim(
        "scale",
        "Scale check — the simulator at ~500 ASes",
        run_scale, format_scale, check_scale,
    ),
)
