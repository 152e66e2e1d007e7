"""Table 6: RR responsiveness and reachability, 2016 vs 2020."""

from conftest import write_report

from repro.experiments import exp_rr_responsiveness


def test_table6(rr_surveys):
    report = exp_rr_responsiveness.format_table6(rr_surveys)
    write_report("table6", report)

    f16 = rr_surveys.surveys["2016"].fractions()
    f20 = rr_surveys.surveys["2020"].fractions()
    # Responsiveness is an endpoint property: stable across epochs
    # (paper: ping 77%/73%, RR 58%/57%).
    assert abs(f16["ping"] - f20["ping"]) < 0.15
    assert abs(f16["rr"] - f20["rr"]) < 0.1
    # Most RR-responsive destinations are within the 8-hop horizon in
    # 2020 (paper: 63%).
    assert f20["within8_of_rr"] >= 0.5
