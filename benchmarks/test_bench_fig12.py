"""Fig 12: symmetry excluding assumption-bearing reverse traceroutes."""

from conftest import write_report

from repro.experiments import exp_asymmetry


def test_fig12(asymmetry):
    report = exp_asymmetry.format_fig12(asymmetry)
    write_report("fig12", report)

    full = asymmetry.as_symmetric_fraction()
    subset = asymmetry.as_symmetric_fraction(
        exclude_assumptions=True
    )
    # Excluding intradomain symmetry assumptions barely changes the
    # result (paper: within ~3%) — the assumptions are benign.
    assert abs(full - subset) <= 0.12
