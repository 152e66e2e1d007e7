"""Fig 14: probability a forward hop is on the reverse path, by
position."""

from conftest import write_report

from repro.analysis.asymmetry import positional_symmetry
from repro.experiments import exp_asymmetry


def test_fig14(asymmetry):
    report = exp_asymmetry.format_fig14(asymmetry)
    write_report("fig14", report)

    pairs = asymmetry.as_pairs()
    dipped = 0
    checked = 0
    for length in (3, 4, 5, 6):
        profile = positional_symmetry(pairs, length)
        if len(profile) < 3:
            continue
        checked += 1
        interior = profile[1:-1]
        # Mid-path hops are less likely to be on the reverse path than
        # the endpoints (paper Fig 14's dip).
        if min(interior) <= min(profile[0], profile[-1]):
            dipped += 1
    assert checked >= 2
    assert dipped >= checked - 1
