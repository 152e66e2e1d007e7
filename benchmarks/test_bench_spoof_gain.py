"""Insight 1.3 / Appendix F: the coverage spoofing buys."""

from conftest import BENCH_SEED, write_report

from repro.experiments import exp_rr_responsiveness
from repro.topology import TopologyConfig, build_internet


def test_spoofing_gain():
    internet = build_internet(
        TopologyConfig.evaluation(seed=BENCH_SEED)
    )
    result = exp_rr_responsiveness.measure_spoofing_gain(
        internet, max_pairs=300, seed=BENCH_SEED
    )
    write_report(
        "spoof_gain",
        exp_rr_responsiveness.format_spoofing_gain(result),
    )
    assert result.pairs >= 200
    # Spoofing roughly doubles reverse-hop coverage (paper: 32% -> 63%).
    assert result.spoofed_fraction() > result.direct_fraction()
    assert result.gain() >= 1.4
