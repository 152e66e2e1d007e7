"""Table 3: reverse AS graph correctness/completeness (§5.1)."""

from conftest import write_report

from repro.experiments import exp_as_graph


def test_table3(bench_scenario):
    result = exp_as_graph.run(bench_scenario, n_destinations=250, n_sources=3)
    write_report("table3", exp_as_graph.format_report(result))
    rows = {name: (corr, compl) for name, corr, compl, _ in result.rows()}
    # revtr gives correctness AND completeness; Atlas is correct but
    # sparse; forward+symmetric is complete but often wrong.
    assert rows["revtr2.0"][0] > rows["forward+symmetric"][0]
    assert rows["revtr2.0"][1] > 2.5 * rows["ripe-atlas"][1]
    assert rows["forward+symmetric"][0] < 0.85
