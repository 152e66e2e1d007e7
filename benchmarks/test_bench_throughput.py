"""§5.2.4 throughput: projected reverse traceroutes per second/day."""

from conftest import write_report

from repro.experiments import exp_comparison


def test_throughput(comparison):
    report = exp_comparison.format_throughput(comparison)
    write_report("throughput", report)

    projections = {
        p.variant: p
        for p in exp_comparison.throughput_projections(comparison)
    }
    # revtr 2.0 sustains an order of magnitude more measurements than
    # revtr 1.0 on the same fleet (paper: 173/s vs 4/s, a 43x gap).
    assert (
        projections["revtr2.0"].revtrs_per_second
        > 5 * projections["revtr1.0"].revtrs_per_second
    )
    # Scaled to the paper's 146-site fleet, revtr 2.0 clears the §3
    # goal of 13.1M measurements per day.
    at_scale = projections["revtr2.0"].scaled_to(146)
    assert at_scale.revtrs_per_day > 13_100_000
