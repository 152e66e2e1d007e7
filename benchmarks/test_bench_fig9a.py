"""Fig 9a: atlas savings vs atlas size, random vs optimal selection."""

from conftest import write_report

from repro.experiments import exp_atlas


def test_fig9a(atlas_study):
    report = exp_atlas.format_report(atlas_study)
    write_report("fig9a", report)

    sizes = sorted(atlas_study.random_curve)
    assert len(sizes) >= 3
    # Diminishing returns: most of the value arrives early (the paper's
    # justification for a 1000-traceroute atlas instead of 5000).
    first, mid, last = (
        atlas_study.random_curve[sizes[0]],
        atlas_study.random_curve[sizes[len(sizes) // 2]],
        atlas_study.random_curve[sizes[-1]],
    )
    assert mid >= first
    assert last - mid <= mid - first + 0.05
    # Random selection is close to the greedy oracle at the operating
    # sizes (paper: random@1000 provides 89% of the optimal savings;
    # at very small atlases the oracle's head start is naturally
    # larger).
    assert (
        atlas_study.random_curve[sizes[-1]]
        >= 0.85 * atlas_study.optimal_curve[sizes[-1]]
    )
    mid_size = sizes[len(sizes) // 2]
    assert (
        atlas_study.random_curve[mid_size]
        >= 0.6 * atlas_study.optimal_curve[mid_size]
    )
