"""Fig 5b (and Appendix D.1): coverage and the timestamp ablations."""

from conftest import write_report

from repro.experiments import exp_comparison


def test_fig5b(comparison):
    report = exp_comparison.format_fig5b(comparison)
    write_report("fig5b", report)

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
