"""Fig 11: RR hop distance from the closest VP, by epoch."""

from conftest import write_report

from repro.experiments import exp_rr_responsiveness


def test_fig11(rr_surveys):
    report = exp_rr_responsiveness.format_fig11(rr_surveys)
    write_report("fig11", report)

    f16 = rr_surveys.surveys["2016"].fractions()
    f20 = rr_surveys.surveys["2020"].fractions()
    restricted = rr_surveys.surveys["2020-with-2016-vps"].fractions()
    # Destinations moved closer to VPs between the epochs
    # (paper: within 4 hops 16% -> 39%), and part of the shift
    # persists even with the 2016-sized VP fleet (flattening).
    assert f20["within4_of_rr"] > f16["within4_of_rr"]
    assert (
        restricted["within8_of_rr"] >= f16["within8_of_rr"] - 0.05
    )
