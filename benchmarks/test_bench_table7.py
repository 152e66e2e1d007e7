"""Table 7: top ASes most frequently involved in path asymmetry."""

from conftest import write_report

from repro.experiments import exp_asymmetry
from repro.topology.asgraph import ASTier


def test_table7(asymmetry):
    report = exp_asymmetry.format_fig8b_table7(asymmetry, 10)
    write_report("table7", report)

    graph = asymmetry.scenario.internet.graph
    top = asymmetry.cone_scatter()[:10]
    assert top
    # The top of the ranking is dominated by transit networks (the
    # paper's top-10 is all tier-1/tier-2 transits).
    transit_like = sum(
        1
        for asn, _, _, tier in top
        if tier in ("tier1", "transit", "nren")
    )
    assert transit_like >= 6
