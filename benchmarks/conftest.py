"""Shared fixtures for the benchmark suite.

Heavy campaigns are computed once per session at evaluation scale and
shared by the per-figure benchmarks. Every benchmark writes its
paper-vs-measured report to ``benchmarks/reports/<name>.txt`` and
prints it, so a ``pytest benchmarks/ --ignore=benchmarks/e2e`` run
regenerates every table and figure of the paper.
"""

import os

import pytest

from repro.experiments import Scenario
from repro.experiments import (
    exp_asymmetry,
    exp_comparison,
    exp_vp_selection,
)
from repro.topology import TopologyConfig

#: Shared seed for the benchmark topology.
BENCH_SEED = 7

REPORT_DIR = os.path.join(os.path.dirname(__file__), "reports")


def write_report(name: str, text: str) -> None:
    os.makedirs(REPORT_DIR, exist_ok=True)
    path = os.path.join(REPORT_DIR, f"{name}.txt")
    with open(path, "w") as handle:
        handle.write(text + "\n")
    print()
    print(text)


def fresh_scenario(seed: int = BENCH_SEED, atlas_size: int = 25):
    """A private evaluation-scale Internet.

    Every campaign gets its own scenario so results are deterministic
    regardless of which benchmarks run (shared simulators accumulate
    RNG/clock state and make reports order-dependent).
    """
    return Scenario(
        config=TopologyConfig.evaluation(seed=seed),
        seed=seed,
        atlas_size=atlas_size,
    )


@pytest.fixture()
def bench_scenario():
    """A fresh evaluation-scale Internet for a single benchmark."""
    return fresh_scenario()


@pytest.fixture(scope="session")
def comparison():
    """The §5.2 campaign (Table 4, Figs 5a/5b/5c)."""
    return exp_comparison.run(
        fresh_scenario(),
        n_pairs=400,
        n_sources=4,
        extra_ts_variants=True,
    )


@pytest.fixture(scope="session")
def asymmetry():
    """The §6.2 bidirectional campaign (Figs 8, 12, 13, 14, Table 7)."""
    return exp_asymmetry.run(
        fresh_scenario(), n_destinations=250, n_sources=4
    )


@pytest.fixture(scope="session")
def vp_selection():
    """The §5.3 VP-selection evaluation (Fig 6, Table 5)."""
    return exp_vp_selection.run(fresh_scenario(), max_prefixes=150)


@pytest.fixture(scope="session")
def atlas_study():
    """The Appendix D.2.1 atlas-selection study (Figs 9a/9b/9c)."""
    from repro.experiments import exp_atlas

    return exp_atlas.run(fresh_scenario(), n_sources=4)


@pytest.fixture(scope="session")
def rr_surveys():
    """The Appendix F epoch surveys (Table 6, Fig 11)."""
    from repro.experiments import exp_rr_responsiveness

    return exp_rr_responsiveness.run(seed=BENCH_SEED)
