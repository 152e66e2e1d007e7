"""Fig 9d: reverse traceroutes intersecting stale atlas traceroutes."""

from conftest import write_report

from repro.experiments import Scenario, exp_staleness
from repro.topology import TopologyConfig


def test_fig9d():
    # A private scenario: the 24-hour run churns routing preferences,
    # which must not leak into the other benchmarks.
    scenario = Scenario(
        config=TopologyConfig.evaluation(seed=21),
        seed=21,
        atlas_size=25,
    )
    result = exp_staleness.run(scenario, hours=24, revtrs_per_hour=15)
    write_report("fig9d", exp_staleness.format_report(result))

    fractions = result.cumulative_stale_fraction()
    assert len(fractions) == 24
    # Staleness stays a small minority effect over the day
    # (paper: 0.7% after 24 h; ours is higher in absolute terms
    # because the atlas is ~50x smaller, so each churned traceroute
    # weighs more).
    assert fractions[-1] <= 0.15
    # Cumulative fractions never decrease.
    total_revtrs = sum(b.revtrs for b in result.hours)
    assert total_revtrs > 100
