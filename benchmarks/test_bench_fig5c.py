"""Fig 5c: per-measurement latency across the component ladder."""

from conftest import write_report

from repro.experiments import exp_comparison


def test_fig5c(comparison):
    report = exp_comparison.format_fig5c(comparison)
    write_report("fig5c", report)

    medians = {
        variant: outcome.median_duration()
        for variant, outcome in comparison.outcomes.items()
    }
    # revtr 2.0 is more than an order of magnitude faster than
    # revtr 1.0 (paper: 78 s -> 6 s), driven by fewer 10 s spoofed
    # batches thanks to ingress-based VP selection.
    assert medians["revtr2.0"] < medians["revtr1.0"] / 10
    assert medians["revtr1.0+ingress"] < medians["revtr1.0"]
