"""Fig 13: AS-path length distribution, symmetric vs asymmetric."""

from conftest import write_report

from repro.analysis.asymmetry import path_length_distribution
from repro.analysis.stats import mean
from repro.experiments import exp_asymmetry


def test_fig13(asymmetry):
    report = exp_asymmetry.format_fig13(asymmetry)
    write_report("fig13", report)

    pairs = asymmetry.as_pairs()
    symmetric = path_length_distribution(pairs, symmetric=True)
    asymmetric = path_length_distribution(pairs, symmetric=False)
    assert symmetric and asymmetric
    # Symmetric paths are shorter on average (paper Fig 13).
    assert mean(symmetric) < mean(asymmetric)
