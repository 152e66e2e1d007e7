"""Fig 8b: asymmetry prevalence vs customer cone size."""

from conftest import write_report

from repro.experiments import exp_asymmetry


def test_fig8b(asymmetry):
    report = exp_asymmetry.format_fig8b_table7(asymmetry)
    write_report("fig8b", report)

    points = asymmetry.cone_scatter()
    assert points
    # Large-cone networks are frequently part of the asymmetry
    # (paper: tier-1s occur on many asymmetric paths): the mean
    # prevalence of big-cone ASes exceeds that of tiny-cone ones.
    big = [p[2] for p in points if p[1] >= 10]
    small = [p[2] for p in points if p[1] < 10]
    if big and small:
        assert sum(big) / len(big) >= sum(small) / len(small)
