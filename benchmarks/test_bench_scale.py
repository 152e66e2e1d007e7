"""Scale check: the simulator at ~500 ASes.

Not a paper figure: a large Internet builds, and a stream of revtr 2.0
measurements over it completes in the expected proportion. How fast
it runs is ``benchmarks/e2e``'s question (its workloads use this
topology).
"""

from conftest import write_report

from repro.core.result import RevtrStatus
from repro.experiments import Scenario
from repro.topology import TopologyConfig


def test_scale_revtr_stream():
    scenario = Scenario(
        config=TopologyConfig.large(seed=11), seed=11, atlas_size=40
    )
    source = scenario.sources()[0]
    engine = scenario.engine(source, "revtr2.0")
    destinations = scenario.responsive_destinations(
        400, options_only=True
    )

    state = {"complete": 0, "total": 0}

    def run_stream():
        for dst in destinations[:200]:
            result = engine.measure(dst)
            state["total"] += 1
            if result.status is RevtrStatus.COMPLETE:
                state["complete"] += 1
        return state["complete"]

    run_stream()

    internet = scenario.internet
    report = "\n".join(
        [
            "Scale benchmark — large topology",
            f"ASes: {len(internet.graph)}  routers: "
            f"{len(internet.routers)}  hosts: {len(internet.hosts)}",
            f"measurements: {state['total']}  complete: "
            f"{state['complete']}",
        ]
    )
    write_report("scale", report)
    assert state["complete"] >= 0.3 * state["total"]
