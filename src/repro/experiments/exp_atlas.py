"""Appendix D.2.1: traceroute atlas design (Figs. 9a, 9b, 9c).

A simulation over a corpus of traceroutes toward each source: part of
the corpus can be selected into the atlas, the rest replay as "reverse
traceroutes" (destination-based routing means a reverse traceroute
from a VP follows that VP's traceroute). Metrics:

* Fig. 9a — mean fraction of hops provided by the atlas, versus atlas
  size, for random selection and for greedy weighted-max-coverage
  (the oracle); the paper finds random at 1000/5000 reaches 50% vs
  56% for optimal.
* Fig. 9b — the daily Random++ replacement policy converges to the
  optimal curve in about five iterations.
* Fig. 9c — savings stay flat as the number of reverse traceroutes
  grows.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Sequence, Set

from repro.analysis.stats import mean
from repro.experiments.common import Scenario
from repro.net.addr import Address
from repro.net.packet import TracerouteResult
from repro.probing.traceroute import paris_traceroute

#: Atlas sizes the Fig. 9a curves are drawn at.
ATLAS_SIZES = (2, 5, 10, 15, 20, 25)

#: Random++ iterations the Fig. 9b convergence runs.
ITERATIONS = 10


@dataclass
class AtlasStudyResult:
    #: atlas size -> mean intersected-hop fraction (random selection)
    random_curve: Dict[int, float]
    #: atlas size -> same for the greedy oracle selection
    optimal_curve: Dict[int, float]
    #: Random++ iteration -> mean fraction (Fig 9b)
    convergence: List[float]
    #: number of revtrs -> mean fraction at a fixed atlas size (Fig 9c)
    scaling: Dict[int, float]
    optimal_at_full: float = 0.0
    #: the greedy-oracle value at the Fig 9b atlas size, for reference
    convergence_optimal: float = 0.0


def _collect_corpus(
    scenario: Scenario, source: Address, vps: Sequence[Address]
) -> List[TracerouteResult]:
    corpus = []
    for vp in vps:
        trace = paris_traceroute(
            scenario.background_prober, vp, source
        )
        if trace.reached and trace.responsive_hops():
            corpus.append(trace)
    return corpus


def _hop_sets(
    corpus: Sequence[TracerouteResult],
) -> List[List[Address]]:
    return [trace.responsive_hops()[:-1] for trace in corpus]


def _intersected_fraction(
    revtr_hops: Sequence[Address], atlas_hops: Set[Address]
) -> float:
    """Fraction of the reverse traceroute's hops the atlas provides.

    The atlas contributes the suffix from the first (deepest from the
    destination) hop present in the atlas; destination-based routing
    lets the system copy everything after that point.
    """
    if not revtr_hops:
        return 0.0
    for index, hop in enumerate(revtr_hops):
        if hop in atlas_hops:
            return (len(revtr_hops) - index) / len(revtr_hops)
    return 0.0


def _greedy_selection(
    traces: List[List[Address]], budget: int
) -> List[int]:
    """Greedy weighted max-coverage of hops (the paper's oracle).

    Hop weight: summed distance-to-source over the traceroutes where
    the hop appears — covering hops far from the source saves more.
    """
    weights: Dict[Address, int] = {}
    for hops in traces:
        for index, hop in enumerate(hops):
            weights[hop] = weights.get(hop, 0) + (len(hops) - index)
    covered: Set[Address] = set()
    chosen: List[int] = []
    remaining = set(range(len(traces)))
    while remaining and len(chosen) < budget:
        best_index, best_gain = None, -1
        for index in sorted(remaining):
            gain = sum(
                weights[hop]
                for hop in set(traces[index]) - covered
            )
            if gain > best_gain:
                best_index, best_gain = index, gain
        if best_index is None:
            break
        chosen.append(best_index)
        covered |= set(traces[best_index])
        remaining.discard(best_index)
    return chosen


def _mean_fraction(
    atlas_indexes: Sequence[int],
    atlas_traces: List[List[Address]],
    revtr_traces: List[List[Address]],
) -> float:
    atlas_hops: Set[Address] = set()
    for index in atlas_indexes:
        atlas_hops |= set(atlas_traces[index])
    return mean(
        [
            _intersected_fraction(hops, atlas_hops)
            for hops in revtr_traces
        ]
        or [0.0]
    )


def run(
    scenario: Scenario,
    n_sources: int = 3,
) -> AtlasStudyResult:
    """Run the atlas-selection study."""
    rng = random.Random(scenario.seed ^ 0x47A5)
    random_curve: Dict[int, List[float]] = {s: [] for s in ATLAS_SIZES}
    optimal_curve: Dict[int, List[float]] = {s: [] for s in ATLAS_SIZES}
    convergence: List[List[float]] = [[] for _ in range(ITERATIONS)]
    convergence_oracle: List[float] = []
    scaling: Dict[int, List[float]] = {}
    optimal_full: List[float] = []

    for source in scenario.sources(n_sources):
        corpus = _collect_corpus(
            scenario, source, scenario.atlas_vp_addrs
        )
        traces = _hop_sets(corpus)
        if len(traces) < 8:
            continue
        split = len(traces) // 2
        indexes = list(range(len(traces)))
        rng.shuffle(indexes)
        atlas_side = [traces[i] for i in indexes[:split]]
        revtr_side = [traces[i] for i in indexes[split:]]

        # Fig 9a: random vs greedy-oracle selection at each size.
        for size in ATLAS_SIZES:
            budget = min(size, len(atlas_side))
            picks = rng.sample(range(len(atlas_side)), budget)
            random_curve[size].append(
                _mean_fraction(picks, atlas_side, revtr_side)
            )
            oracle = _greedy_selection(atlas_side, budget)
            optimal_curve[size].append(
                _mean_fraction(oracle, atlas_side, revtr_side)
            )
        optimal_full.append(
            _mean_fraction(
                range(len(atlas_side)), atlas_side, revtr_side
            )
        )

        # Fig 9b: Random++ iterations toward the optimal value.
        target_size = max(2, len(atlas_side) // 3)
        current = rng.sample(range(len(atlas_side)), target_size)
        eval_sample = revtr_side  # fixed evaluation set
        convergence_oracle.append(
            _mean_fraction(
                _greedy_selection(atlas_side, target_size),
                atlas_side,
                eval_sample,
            )
        )
        for iteration in range(ITERATIONS):
            sample = [
                revtr_side[rng.randrange(len(revtr_side))]
                for _ in range(min(30, len(revtr_side) * 3))
            ]
            convergence[iteration].append(
                _mean_fraction(current, atlas_side, eval_sample)
            )
            # Keep traceroutes that produced intersections; replace
            # the rest with fresh random picks.
            atlas_hops_of = {
                i: set(atlas_side[i]) for i in current
            }
            useful: Set[int] = set()
            for hops in sample:
                for hop in hops:
                    for i, hopset in atlas_hops_of.items():
                        if hop in hopset:
                            useful.add(i)
                            break
                    else:
                        continue
                    break
            pool = [
                i
                for i in range(len(atlas_side))
                if i not in useful
            ]
            rng.shuffle(pool)
            current = sorted(useful) + pool[
                : target_size - len(useful)
            ]

        # Fig 9c: fraction vs number of revtrs at fixed atlas size.
        fixed = rng.sample(
            range(len(atlas_side)), min(10, len(atlas_side))
        )
        for count in (5, 10, 20, 40):
            sample = [
                revtr_side[rng.randrange(len(revtr_side))]
                for _ in range(count)
            ]
            scaling.setdefault(count, []).append(
                _mean_fraction(fixed, atlas_side, sample)
            )

    return AtlasStudyResult(
        random_curve={
            s: mean(v) for s, v in random_curve.items() if v
        },
        optimal_curve={
            s: mean(v) for s, v in optimal_curve.items() if v
        },
        convergence=[mean(v) for v in convergence if v],
        scaling={c: mean(v) for c, v in scaling.items() if v},
        optimal_at_full=mean(optimal_full) if optimal_full else 0.0,
        convergence_optimal=(
            mean(convergence_oracle) if convergence_oracle else 0.0
        ),
    )


def format_report(result: AtlasStudyResult) -> str:
    lines = [
        "Fig 9a — atlas savings vs size (mean hop fraction intersected)",
        f"{'size':>6}{'random':>9}{'optimal':>9}",
    ]
    for size in sorted(result.random_curve):
        lines.append(
            f"{size:6d}{result.random_curve[size]:9.2f}"
            f"{result.optimal_curve.get(size, 0.0):9.2f}"
        )
    lines.append(
        f"full-corpus optimal: {result.optimal_at_full:.2f} "
        "(paper: random@1000 = 50%, optimal@1000 = 56%, "
        "optimal@5000 = 60%)"
    )
    lines.append("")
    lines.append(
        "Fig 9b — Random++ convergence (paper: ~5 iterations suffice)"
    )
    lines.append(
        f"  greedy-oracle reference at same size: "
        f"{result.convergence_optimal:.2f}"
    )
    for iteration, value in enumerate(result.convergence):
        lines.append(f"  iter {iteration}: {value:.2f}")
    lines.append("")
    lines.append("Fig 9c — savings vs number of reverse traceroutes")
    for count in sorted(result.scaling):
        lines.append(f"  {count:4d} revtrs: {result.scaling[count]:.2f}")
    lines.append("(paper: <1% decrease from 1k to 9k revtrs)")
    return "\n".join(lines)
