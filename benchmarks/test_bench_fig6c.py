"""Fig 6c: number of spoofing vantage points tried per prefix."""

from conftest import write_report

from repro.analysis.stats import mean
from repro.experiments import exp_vp_selection


def test_fig6c(vp_selection):
    report = exp_vp_selection.format_fig6(vp_selection)
    write_report("fig6c", report)

    ingress = mean(vp_selection.spoofers_distribution("ingress"))
    legacy = mean(vp_selection.spoofers_distribution("revtr1.0"))
    global_order = mean(vp_selection.spoofers_distribution("global"))
    # revtr 2.0 tries far fewer spoofers than either baseline
    # (paper: 10+ VPs for <5% of prefixes vs 28% for 1.0/Global).
    assert ingress < legacy
    assert ingress < global_order
