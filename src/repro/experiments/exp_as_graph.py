"""Table 3: reverse-AS-graph correctness and completeness (§5.1).

Three ways to learn the AS links the Internet uses toward a source:

* **revtr 2.0** — measure reverse paths from destinations everywhere;
* **RIPE Atlas** — direct traceroutes, but only from the few networks
  hosting probes;
* **forward traceroutes + assume symmetry** — reverse every forward
  path.

The paper reports correctness 1.00 / 1.00 / 0.60 and completeness
0.55 / 0.06 / 0.78. The simulator additionally lets us *verify* the
links of all three techniques against ground truth, rather than taking
the first two as correct by construction.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Sequence, Set, Tuple

from repro.analysis.coverage import ASGraphScore, score_as_graph
from repro.core.result import RevtrStatus
from repro.experiments.common import Scenario
from repro.net.addr import Address
from repro.probing.traceroute import paris_traceroute

#: Paper reference values: technique -> (correctness, completeness).
PAPER = {
    "revtr2.0": (1.00, 0.55),
    "ripe-atlas": (1.00, 0.06),
    "forward+symmetric": (0.60, 0.78),
}

#: Share of ASes hosting a RIPE Atlas probe: the real-world density
#: (probes in ~6% of ASes) the RIPE-Atlas technique is scaled to.
ATLAS_PROBE_FRACTION = 0.06

#: The destinations measured, and the sources they are measured from.
N_DESTINATIONS = 250
N_SOURCES = 3


@dataclass
class Table3Result:
    scores: Dict[str, ASGraphScore]
    total_ases: int

    def rows(self) -> List[Tuple[str, float, float, float]]:
        """(technique, paper-style correctness, completeness, verified).

        The paper takes revtr and Atlas links as correct because both
        directly measure the path; the forward+symmetric technique is
        scored by how often the assumption holds. The last column is
        the simulator-verified correctness (ground-truth links), which
        the deployed system cannot compute — it differs from 1.0 only
        through IP-to-AS mapping noise on measured addresses.
        """
        rows = []
        for name, score in self.scores.items():
            verified = score.correctness()
            paper_style = (
                verified if name == "forward+symmetric" else 1.0
            )
            rows.append(
                (
                    name,
                    paper_style,
                    score.completeness(self.total_ases),
                    verified,
                )
            )
        return rows


def _truth_links(
    scenario: Scenario, source: Address, destinations: Sequence[Address]
) -> Set[Tuple[int, int]]:
    """Ground-truth directed AS links on reverse paths toward source."""
    internet = scenario.internet
    links: Set[Tuple[int, int]] = set()
    for dst in destinations:
        path = internet.ground_truth_router_path(dst, source)
        as_path: List[int] = []
        for router_id in path:
            asn = internet.routers[router_id].asn
            if not as_path or as_path[-1] != asn:
                as_path.append(asn)
        for here, nxt in zip(as_path, as_path[1:]):
            links.add((here, nxt))
    return links


def run(scenario: Scenario) -> Table3Result:
    """Run the Table 3 comparison."""
    rng = random.Random(scenario.seed ^ 0x7A3)
    internet = scenario.internet
    sources = scenario.sources(N_SOURCES)
    destinations = scenario.responsive_destinations(N_DESTINATIONS)
    total_ases = len(internet.graph)
    n_probes = max(2, int(total_ases * ATLAS_PROBE_FRACTION))
    probe_pool = list(scenario.atlas_vp_addrs)
    rng.shuffle(probe_pool)
    probe_pool = probe_pool[:n_probes]

    revtr_paths: List[List[int]] = []
    atlas_paths: List[List[int]] = []
    forward_paths: List[List[int]] = []
    truth: Set[Tuple[int, int]] = set()

    for source in sources:
        truth |= _truth_links(scenario, source, destinations)
        engine = scenario.engine(source, "revtr2.0")

        for dst in destinations:
            result = engine.measure(dst)
            if result.status is RevtrStatus.COMPLETE:
                revtr_paths.append(
                    scenario.ip2as.collapsed_as_path(result.addresses())
                )
            # Forward traceroute + assumed symmetry: reverse the
            # forward path and pretend it is the reverse route.
            forward = paris_traceroute(
                scenario.background_prober, source, dst
            )
            if forward.reached:
                as_path = scenario.ip2as.collapsed_as_path(
                    [h for h in forward.hops if h is not None]
                )
                forward_paths.append(list(reversed(as_path)))

        # RIPE-Atlas technique: direct traceroutes from probe hosts.
        for probe in probe_pool:
            trace = paris_traceroute(
                scenario.background_prober, probe, source
            )
            if trace.reached:
                atlas_paths.append(
                    scenario.ip2as.collapsed_as_path(
                        [h for h in trace.hops if h is not None]
                    )
                )

    scores = {
        "revtr2.0": score_as_graph("revtr2.0", revtr_paths, truth),
        "ripe-atlas": score_as_graph("ripe-atlas", atlas_paths, truth),
        "forward+symmetric": score_as_graph(
            "forward+symmetric", forward_paths, truth
        ),
    }
    return Table3Result(scores=scores, total_ases=total_ases)


def format_report(result: Table3Result) -> str:
    lines = [
        "Table 3 — reverse AS graph correctness / completeness",
        f"{'technique':22s}{'correct':>9}{'complete':>10}"
        f"{'verified':>10}{'paper-corr':>12}{'paper-compl':>12}",
    ]
    for name, correctness, completeness, verified in result.rows():
        paper_corr, paper_compl = PAPER[name]
        lines.append(
            f"{name:22s}{correctness:9.2f}{completeness:10.2f}"
            f"{verified:10.2f}{paper_corr:12.2f}{paper_compl:12.2f}"
        )
    return "\n".join(lines)
