"""Fig 6b: reverse hops uncovered by the first batch, per technique."""

from conftest import write_report

from repro.analysis.stats import mean
from repro.experiments import exp_vp_selection


def test_fig6b(vp_selection):
    report = exp_vp_selection.format_fig6(vp_selection)
    write_report("fig6b", report)

    ingress = mean(vp_selection.first_batch_distribution("ingress"))
    legacy = mean(vp_selection.first_batch_distribution("revtr1.0"))
    optimal = mean(vp_selection.optimal_distribution())
    # The ingress technique is near-optimal and at least as good as
    # revtr 1.0's set cover (paper: 2.0 nearly optimal, 1.0 well
    # below).
    assert ingress >= legacy - 1e-9
    assert ingress >= 0.85 * optimal
