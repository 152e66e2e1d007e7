"""Fig 7 / §6.1: the traffic-engineering case study."""

from conftest import write_report

from repro.experiments import Scenario, exp_traffic_eng
from repro.topology import TopologyConfig


def test_fig7_te():
    # A private scenario: the anycast deployment and announcement
    # changes must not leak into the other benchmarks.
    scenario = Scenario(
        config=TopologyConfig.evaluation(seed=9),
        seed=9,
        atlas_size=20,
    )
    result = exp_traffic_eng.run(scenario, n_monitors=80)
    write_report(
        "fig7_te", exp_traffic_eng.format_report(result)
    )

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
