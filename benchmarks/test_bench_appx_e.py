"""Appendix E: violations of destination-based routing."""

from conftest import write_report

from repro.experiments import exp_dbr_violations


def test_appx_e(bench_scenario):
    result = exp_dbr_violations.run(bench_scenario, n_pairs=400)
    write_report(
        "appx_e", exp_dbr_violations.format_report(result)
    )
    assert result.tuples_tested >= 200
    # Violations are a small minority (paper: 6.6%)...
    assert result.violation_rate() <= 0.15
    # ...and AS-affecting ones rarer still (paper: 1.3%).
    assert result.as_affecting_rate() <= result.violation_rate()
    assert result.as_affecting_rate() <= 0.05
