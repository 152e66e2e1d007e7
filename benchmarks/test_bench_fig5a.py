"""Fig 5a: accuracy of reverse traceroutes vs direct traceroutes."""

from conftest import write_report

from repro.analysis.stats import median
from repro.experiments import exp_comparison


def test_fig5a(comparison):
    report = exp_comparison.format_fig5a(comparison)
    write_report("fig5a", report)

    acc10 = comparison.accuracy("revtr1.0")
    acc20 = comparison.accuracy("revtr2.0")
    assert len(acc20) > 50
    correct10 = sum(1 for c in acc10 if c.as_correct) / len(acc10)
    correct20 = sum(1 for c in acc20 if c.as_correct) / len(acc20)
    # revtr 2.0's AS paths are right (no wrong AS) at least as often
    # as revtr 1.0's, whose interdomain symmetry assumptions inject
    # wrong hops (paper: 92.3% vs 81.8% exact). A small tolerance
    # covers the paper's discrepancy cases (3)/(4): load balancing
    # and per-source forwarding give the reverse measurement a valid
    # path that differs from the direct traceroute's.
    assert correct20 >= correct10 - 0.03
    assert correct20 >= 0.85
    # The optimistic band sits above the resolved router fraction.
    router = median([c.router_fraction for c in acc20])
    optimistic = median(
        [c.router_fraction_optimistic for c in acc20]
    )
    assert optimistic >= router
