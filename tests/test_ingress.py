"""Tests for ingress discovery and VP selection (Q3, §4.3, §5.3)."""

import pytest

from repro.core.ingress import (
    GlobalOrderSelector,
    IngressSelector,
    SetCoverSelector,
    survey_vp_ranges,
    _chunk,
)


class TestChunk:
    def test_batches_of_three(self):
        assert _chunk(list("abcdefg"), 3) == [
            ["a", "b", "c"],
            ["d", "e", "f"],
            ["g"],
        ]

    def test_empty(self):
        assert _chunk([], 3) == []


class TestIngressDirectory:
    def test_survey_discovers_ingresses(self, small_scenario):
        directory = small_scenario.ingress_directory()
        surveys = directory.surveys
        assert surveys, "no prefixes surveyed"
        with_ingress = [s for s in surveys.values() if s.ingresses]
        # Paper: ingresses found for 97.7% of prefixes with a VP in
        # range; require a healthy majority here.
        in_range = [s for s in surveys.values() if s.in_range]
        assert len(with_ingress) >= 0.7 * max(1, len(in_range))

    def test_ingress_covers_vps(self, small_scenario):
        directory = small_scenario.ingress_directory()
        for survey in directory.surveys.values():
            for ingress in survey.ingresses:
                assert ingress.vps, "empty ingress cover"
                assert len(ingress.vps) == len(ingress.distances)
                # Closest-first ordering.
                assert ingress.distances == sorted(ingress.distances)

    def test_ingresses_ordered_by_coverage(self, small_scenario):
        directory = small_scenario.ingress_directory()
        for survey in directory.surveys.values():
            covers = [i.coverage() for i in survey.ingresses]
            assert covers == sorted(covers, reverse=True)

    def test_ingress_on_true_forward_path(self, small_scenario):
        """Discovered ingresses must actually sit on the path from the
        covered VP to destinations of the prefix (ground-truth check)."""
        internet = small_scenario.internet
        directory = small_scenario.ingress_directory()
        checked = 0
        for survey in list(directory.surveys.values())[:25]:
            dst = survey.destinations[0]
            for ingress in survey.ingresses[:2]:
                owner = internet.router_of(ingress.addr)
                if owner is None:
                    continue
                vp = ingress.vps[0]
                path = internet.ground_truth_router_path(vp, dst)
                # The ingress router (or its /30 twin) is on the path.
                if owner.router_id in path:
                    checked += 1
        assert checked > 0

    def test_vp_order_prefers_covering_ingresses(self, small_scenario):
        directory = small_scenario.ingress_directory()
        survey = next(
            s for s in directory.surveys.values() if s.ingresses
        )
        dst = survey.destinations[0]
        order = directory.vp_order_for(dst)
        assert order
        assert order[0] == survey.ingresses[0].vps[0]

    def test_unknown_prefix_empty_order(self, small_scenario):
        directory = small_scenario.ingress_directory()
        assert directory.vp_order_for("203.0.113.77") == []


class TestSelectors:
    def test_ingress_selector_batches(self, small_scenario):
        directory = small_scenario.ingress_directory()
        selector = IngressSelector(directory)
        survey = next(
            s for s in directory.surveys.values() if s.ingresses
        )
        batches = selector.batches(survey.destinations[0])
        assert batches
        assert all(len(b) <= 3 for b in batches)

    def test_set_cover_selector_orders_all_vps(self, small_scenario):
        ranges = small_scenario.vp_ranges()
        selector = SetCoverSelector(
            small_scenario.internet, ranges, small_scenario.spoofer_addrs
        )
        dst = small_scenario.responsive_destinations(1)[0]
        batches = selector.batches(dst)
        flattened = [vp for batch in batches for vp in batch]
        assert set(flattened) == set(small_scenario.spoofer_addrs)

    def test_set_cover_in_range_first(self, small_scenario):
        ranges = small_scenario.vp_ranges()
        internet = small_scenario.internet
        selector = SetCoverSelector(
            internet, ranges, small_scenario.spoofer_addrs
        )
        # Find a destination whose prefix has in-range VPs.
        for prefix, per_vp in ranges.items():
            if per_vp:
                info = internet.prefixes[prefix]
                dst = sorted(info.hosts)[0]
                first = selector.batches(dst)[0][0]
                assert first in per_vp
                break
        else:
            pytest.skip("no prefix with in-range VPs")

    def test_global_selector_same_order_everywhere(self, small_scenario):
        ranges = small_scenario.vp_ranges()
        selector = GlobalOrderSelector(
            ranges, small_scenario.spoofer_addrs
        )
        a = selector.batches("1.2.3.4")
        b = selector.batches("5.6.7.8")
        assert a == b
        flattened = [vp for batch in a for vp in batch]
        assert set(flattened) == set(small_scenario.spoofer_addrs)


class TestRangeSurvey:
    def test_distances_within_rr_limit(self, small_scenario):
        ranges = small_scenario.vp_ranges()
        for per_vp in ranges.values():
            for distance in per_vp.values():
                assert 1 <= distance <= 8
