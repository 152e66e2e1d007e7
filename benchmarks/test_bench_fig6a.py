"""Fig 6a: reverse hops uncovered by the first batch vs batch size."""

from conftest import write_report

from repro.analysis.stats import mean
from repro.experiments import exp_vp_selection


def test_fig6a(vp_selection):
    report = exp_vp_selection.format_fig6(vp_selection)
    write_report("fig6a", report)

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
