"""Fig 8a: Internet path asymmetry at AS and router granularity."""

from conftest import write_report

from repro.analysis.stats import median
from repro.experiments import exp_asymmetry


def test_fig8a(asymmetry):
    report = exp_asymmetry.format_fig8a(asymmetry)
    write_report("fig8a", report)

    assert len(asymmetry.records) > 100
    symmetric = asymmetry.as_symmetric_fraction()
    # Roughly half of paths are asymmetric even at AS granularity
    # (paper: 53% symmetric).
    assert 0.35 <= symmetric <= 0.75
    router = asymmetry.router_symmetry_values()
    # Router-level sharing is well below 1 (paper: median 0.28, with
    # an alias-corrected optimistic bound of 0.68 — our simulator has
    # near-complete alias knowledge so we sit near the bound).
    assert median(router) < 0.9
