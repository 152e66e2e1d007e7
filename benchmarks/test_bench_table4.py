"""Table 4: online packets by type across the component ladder."""

from conftest import write_report

from repro.experiments import exp_comparison


def test_table4(comparison):
    report = exp_comparison.format_table4(comparison)
    write_report("table4", report)

    totals = {
        variant: outcome.packet_counts()["total"]
        for variant, outcome in comparison.outcomes.items()
    }
    # revtr 2.0 sends a fraction of revtr 1.0's probes (paper: 26%).
    assert totals["revtr2.0"] < 0.6 * totals["revtr1.0"]
    # The ingress selection is the largest single saving (paper: 125K
    # of the 202K saved probes).
    spoofed = {
        variant: outcome.packet_counts()["spoof-rr"]
        for variant, outcome in comparison.outcomes.items()
    }
    assert spoofed["revtr1.0+ingress"] < spoofed["revtr1.0"]
    # Dropping TS removes all timestamp probes.
    assert (
        comparison.outcomes["revtr1.0+ingress+cache-TS"]
        .packet_counts()["ts"]
        == 0
    )
