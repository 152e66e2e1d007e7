"""Fig 9b: Random++ atlas replacement converges toward optimal."""

from conftest import write_report

from repro.experiments import exp_atlas


def test_fig9b(atlas_study):
    report = exp_atlas.format_report(atlas_study)
    write_report("fig9b", report)

    curve = atlas_study.convergence
    assert len(curve) >= 5
    # After a few replacement iterations the random atlas performs at
    # least as well as it started, and reaches the oracle's
    # neighbourhood (paper: 5 iterations to optimal).
    start = curve[0]
    settled = sum(curve[4:]) / len(curve[4:])
    assert settled >= start - 0.02
    assert settled >= 0.8 * atlas_study.convergence_optimal
