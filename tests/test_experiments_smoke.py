"""Smoke + semantics tests for the experiment modules on tiny topologies.

The benchmarks run these at evaluation scale; here we check that every
experiment runs end to end on a tiny Internet, returns well-formed
results, and that its formatter renders without blowing up.
"""

import pytest

from repro.experiments import (
    Scenario,
    exp_as_graph,
    exp_asymmetry,
    exp_atlas,
    exp_comparison,
    exp_dbr_violations,
    exp_rr_responsiveness,
    exp_staleness,
    exp_symmetry_assumption,
    exp_traffic_eng,
    exp_vp_selection,
)
from repro.topology import TopologyConfig


@pytest.fixture(scope="module")
def exp_scenario():
    return Scenario(
        config=TopologyConfig.tiny(seed=17), seed=17, atlas_size=10
    )


class TestComparison:
    def test_ladder_runs(self, exp_scenario):
        campaign = exp_comparison.run(
            exp_scenario, n_pairs=30, n_sources=2
        )
        assert set(campaign.outcomes) == set(exp_comparison.LADDER)
        for outcome in campaign.outcomes.values():
            assert len(outcome.results) == 30
        # Formatters render.
        for formatter in (
            exp_comparison.format_table4,
            exp_comparison.format_fig5a,
            exp_comparison.format_fig5b,
            exp_comparison.format_fig5c,
        ):
            assert formatter(campaign)

    def test_coverage_ordering(self, exp_scenario):
        campaign = exp_comparison.run(
            exp_scenario, n_pairs=25, n_sources=2,
            variants=("revtr1.0", "revtr2.0"),
        )
        cov10 = campaign.outcomes["revtr1.0"].coverage()
        cov20 = campaign.outcomes["revtr2.0"].coverage()
        assert cov10 >= cov20  # 2.0 trades coverage for accuracy


class TestSymmetryAssumption:
    def test_runs_and_counts_consistent(self, exp_scenario):
        result = exp_symmetry_assumption.run(
            exp_scenario, max_targets=60
        )
        total = result.all_counts
        assert (
            total.total()
            == result.intra.total() + result.inter.total()
        )
        assert exp_symmetry_assumption.format_report(result)


class TestASGraph:
    def test_runs(self, exp_scenario, monkeypatch):
        monkeypatch.setattr(exp_as_graph, "N_DESTINATIONS", 40)
        monkeypatch.setattr(exp_as_graph, "N_SOURCES", 2)
        result = exp_as_graph.run(exp_scenario)
        rows = result.rows()
        assert len(rows) == 3
        for _, correctness, completeness, verified in rows:
            assert 0.0 <= correctness <= 1.0
            assert 0.0 <= completeness <= 1.0
            assert 0.0 <= verified <= 1.0
        assert exp_as_graph.format_report(result)


class TestVPSelection:
    def test_runs(self, exp_scenario):
        result = exp_vp_selection.run(exp_scenario, max_prefixes=30)
        assert result.prefixes_evaluated > 0
        for name in exp_vp_selection.PAPER_TABLE5:
            assert 0.0 <= result.table5[name] <= 1.0
        # First batches cannot beat the optimal.
        for evaluation in result.evals:
            for hops in evaluation.first_batch_hops.values():
                assert hops <= evaluation.optimal_hops
        assert exp_vp_selection.format_table5(result)
        assert exp_vp_selection.format_fig6(result)


class TestAsymmetry:
    def test_records_well_formed(self, exp_scenario):
        campaign = exp_asymmetry.run(
            exp_scenario, n_destinations=40, n_sources=2
        )
        assert campaign.records
        for record in campaign.records:
            if record.router_symmetry is not None:
                assert 0.0 <= record.router_symmetry <= 1.0
            # The paper's membership predicate: symmetric means every
            # forward AS appears on the reverse path.
            if record.as_symmetric:
                assert set(record.forward_as) <= set(
                    record.reverse_as
                )
        for formatter in (
            exp_asymmetry.format_fig8a,
            exp_asymmetry.format_fig8b_table7,
            exp_asymmetry.format_fig12,
            exp_asymmetry.format_fig13,
            exp_asymmetry.format_fig14,
        ):
            assert formatter(campaign)


class TestAtlasStudy:
    def test_monotone_optimal(self, exp_scenario):
        result = exp_atlas.run(exp_scenario, n_sources=2)
        sizes = sorted(result.optimal_curve)
        values = [result.optimal_curve[s] for s in sizes]
        assert all(
            b >= a - 1e-9 for a, b in zip(values, values[1:])
        ), "greedy-oracle curve must be non-decreasing"
        assert exp_atlas.format_report(result)


class TestStaleness:
    def test_short_run(self, monkeypatch):
        monkeypatch.setattr(exp_staleness, "HOURS", 6)
        scenario = Scenario(
            config=TopologyConfig.tiny(seed=19), seed=19, atlas_size=8
        )
        result = exp_staleness.run(scenario, revtrs_per_hour=5)
        assert len(result.hours) == 6
        stale = [
            b.stale_no_intersection + b.stale_wrong_as_path
            for b in result.hours
        ]
        # A stale verdict is one of the hour's intersections, and an
        # intersection one of its complete reverse traceroutes.
        for bucket, n_stale in zip(result.hours, stale):
            assert n_stale <= bucket.intersections <= bucket.revtrs
        # No route has changed before the first churn event, so a stale
        # verdict there is a false positive of the staleness check.
        first_churn = (result.churn_events or [len(result.hours)])[0]
        assert not any(stale[:first_churn])
        assert exp_staleness.format_report(result)


class TestDBR:
    def test_runs(self, exp_scenario):
        result = exp_dbr_violations.run(exp_scenario, n_pairs=60)
        assert result.violations + result.load_balancers <= (
            result.tuples_tested + result.load_balancers
        )
        assert result.as_affecting <= result.violations
        assert exp_dbr_violations.format_report(result)


class TestRRResponsiveness:
    def test_runs(self):
        result = exp_rr_responsiveness.run(seed=3)
        assert set(result.surveys) == {
            "2016",
            "2020",
            "2020-with-2016-vps",
        }
        for survey in result.surveys.values():
            fractions = survey.fractions()
            assert 0.0 <= fractions["ping"] <= 1.0
            assert fractions["rr"] <= fractions["ping"] + 0.2
            cdf = dict(survey.distance_cdf())
            values = [cdf[h] for h in range(1, 10)]
            assert values == sorted(values)  # CDFs are monotone
        assert exp_rr_responsiveness.format_table6(result)
        assert exp_rr_responsiveness.format_fig11(result)


class TestTrafficEng:
    def test_runs_and_withdraws(self):
        scenario = Scenario(
            config=TopologyConfig.tiny(seed=13), seed=13, atlas_size=8
        )
        before = dict(scenario.internet._announcements)
        result = exp_traffic_eng.run(scenario, n_monitors=25)
        assert result.rounds
        assert exp_traffic_eng.format_report(result)
        # The testbed must clean up after itself.
        assert scenario.internet._announcements == before
