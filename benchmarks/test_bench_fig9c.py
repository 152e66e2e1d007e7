"""Fig 9c: atlas savings are stable as the number of revtrs grows."""

from conftest import write_report

from repro.experiments import exp_atlas


def test_fig9c(atlas_study):
    report = exp_atlas.format_report(atlas_study)
    write_report("fig9c", report)

    scaling = atlas_study.scaling
    counts = sorted(scaling)
    assert len(counts) >= 3
    # The mean intersected fraction decreases only slowly with the
    # number of reverse traceroutes (paper: <1% from 1k to 9k; our
    # samples are two orders of magnitude smaller, so allow noise).
    assert scaling[counts[-1]] >= scaling[counts[0]] - 0.15
