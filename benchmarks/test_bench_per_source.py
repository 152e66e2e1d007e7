"""§5.1: per-source completeness of the measurement fleet."""

from conftest import fresh_scenario, write_report

from repro.experiments import exp_completeness


def test_per_source_completeness():
    scenario = fresh_scenario(seed=15)
    result = exp_completeness.run(scenario, n_destinations=250, n_sources=6)
    write_report(
        "per_source", exp_completeness.format_report(result)
    )

    # Every source covers a substantial share of the AS-level
    # Internet, and no source is cloaked (paper: even the worst M-Lab
    # source reaches 26% of ASes).
    assert result.overall_fraction() >= 0.4
    assert result.worst_fraction() >= 0.2
    # The fleet together sees more than any single source.
    assert result.overall_fraction() >= result.median_fraction()
