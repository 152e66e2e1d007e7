"""Tests for the analysis package: stats, accuracy, asymmetry, coverage."""

import pytest
from hypothesis import given, strategies as st

from repro.alias.resolver import AliasResolver
from repro.analysis.accuracy import compare_paths
from repro.analysis.asymmetry import (
    asymmetry_prevalence,
    hop_symmetry_fraction,
    path_length_distribution,
    positional_symmetry,
)
from repro.analysis.coverage import (
    links_toward_source,
    score_as_graph,
)
from repro.analysis.stats import (
    fraction_leq,
    mean,
    median,
    percentile,
)


class TestStats:
    def test_median_odd_even(self):
        assert median([3, 1, 2]) == 2
        assert median([1, 2, 3, 4]) == 2.5

    def test_median_empty_raises(self):
        with pytest.raises(ValueError):
            median([])

    def test_percentile(self):
        values = list(range(1, 101))
        assert percentile(values, 50) == 50
        assert percentile(values, 90) == 90
        assert percentile(values, 0) == 1
        assert percentile(values, 100) == 100

    def test_percentile_bounds(self):
        with pytest.raises(ValueError):
            percentile([1], 101)
        with pytest.raises(ValueError):
            percentile([], 50)

    def test_fraction_leq(self):
        assert fraction_leq([1, 2, 3, 4], 2) == 0.5
        assert fraction_leq([], 5) == 0.0

    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False,
                              width=32), min_size=1))
    def test_median_between_min_max(self, values):
        m = median(values)
        assert min(values) <= m <= max(values)


class TestCompare:
    def test_identical_paths(self):
        resolver = AliasResolver()
        result = compare_paths(
            ["10.0.0.1", "10.0.10.1", "10.0.20.1", "10.0.30.1"], ["10.0.0.1", "10.0.10.1", "10.0.20.1", "10.0.30.1"], resolver,
            _FakeMapper({"10.0.0.1": 1, "10.0.10.1": 2, "10.0.20.1": 3, "10.0.30.1": 4}),
        )
        assert result.router_fraction == 1.0
        assert result.as_exact

    def test_reverse_missing_as(self):
        mapper = _FakeMapper({"10.0.0.1": 1, "10.0.10.1": 2, "10.0.20.1": 3, "10.0.30.1": 4})
        result = compare_paths(
            ["10.0.0.1", "10.0.20.1", "10.0.30.1"], ["10.0.0.1", "10.0.10.1", "10.0.20.1", "10.0.30.1"],
            AliasResolver(), mapper,
        )
        assert not result.as_exact
        assert result.as_missing_only
        assert result.as_correct

    def test_direct_missing_as(self):
        mapper = _FakeMapper({"10.0.0.1": 1, "10.0.10.1": 2, "10.0.20.1": 3, "10.0.30.1": 4})
        result = compare_paths(
            ["10.0.0.1", "10.0.10.1", "10.0.20.1", "10.0.30.1"], ["10.0.0.1", "10.0.20.1", "10.0.30.1"],
            AliasResolver(), mapper,
        )
        assert not result.as_exact
        assert result.as_direct_incomplete
        assert result.as_correct

    def test_wrong_as_not_correct(self):
        mapper = _FakeMapper(
            {"10.0.0.1": 1, "10.0.10.1": 2, "10.0.40.1": 9, "10.0.20.1": 3, "10.0.30.1": 4}
        )
        result = compare_paths(
            ["10.0.0.1", "10.0.40.1", "10.0.30.1"], ["10.0.0.1", "10.0.10.1", "10.0.20.1", "10.0.30.1"],
            AliasResolver(), mapper,
        )
        assert not result.as_correct

    def test_too_short_direct(self):
        assert (
            compare_paths(
                ["10.0.10.1"], ["10.0.40.1"], AliasResolver(), _FakeMapper({})
            )
            is None
        )

    def test_optimistic_counts_unresolvable(self):
        resolver = AliasResolver(itdk={"10.0.10.1": 1})
        mapper = _FakeMapper({"10.0.0.1": 1, "10.0.10.1": 2, "10.0.50.1": 3, "10.0.30.1": 4})
        # Direct hop "10.0.50.1" has no alias data -> optimistic counts it.
        result = compare_paths(
            ["10.0.0.1", "10.0.30.1"], ["10.0.10.1", "10.0.50.1", "10.0.30.1"], resolver, mapper
        )
        assert result.router_fraction_optimistic > result.router_fraction


class _FakeMapper:
    def __init__(self, table):
        self.table = table

    def asn(self, addr):
        return self.table.get(addr)

    def collapsed_as_path(self, hops):
        out = []
        for hop in hops:
            asn = self.asn(hop)
            if asn is None:
                continue
            if not out or out[-1] != asn:
                out.append(asn)
        return out


class TestAsymmetryMetrics:
    def test_hop_symmetry_full(self):
        resolver = AliasResolver()
        value = hop_symmetry_fraction(
            ["10.0.10.1", "10.0.20.1", "10.0.60.1"], ["10.0.40.1", "10.0.20.1", "10.0.10.1"], resolver
        )
        assert value == 1.0

    def test_hop_symmetry_none_for_short(self):
        assert (
            hop_symmetry_fraction(["10.0.10.1"], ["10.0.10.1"], AliasResolver())
            is None
        )

    def test_prevalence(self):
        pairs = [
            ([1, 2, 3], [1, 2, 3]),  # symmetric
            ([1, 2, 3], [1, 4, 3]),  # 2 and 4 in the difference
        ]
        prevalence = asymmetry_prevalence(pairs)
        assert prevalence.total_asymmetric == 1
        assert prevalence.prevalence(2) == 1.0
        assert prevalence.prevalence(4) == 1.0
        assert prevalence.prevalence(1) == 0.0
        assert set(prevalence.involved) == {2, 4}

    def test_positional(self):
        pairs = [
            ([1, 2, 3], [1, 9, 3]),
            ([1, 2, 3], [1, 2, 3]),
        ]
        profile = positional_symmetry(pairs, 3)
        assert profile == [1.0, 0.5, 1.0]
        assert positional_symmetry(pairs, 7) == []

    def test_length_distribution_filters(self):
        pairs = [
            ([1, 2], [1, 2]),
            ([1, 2, 3], [1, 9, 3]),
        ]
        assert path_length_distribution(pairs, symmetric=True) == [2]
        assert path_length_distribution(pairs, symmetric=False) == [3]
        assert path_length_distribution(
            pairs, through_asns={9}
        ) == []
        assert path_length_distribution(
            pairs, through_asns={3}
        ) == [3]


class TestCoverage:
    def test_links_toward_source(self):
        assert links_toward_source([1, 2, 2, 3]) == [(1, 2), (2, 3)]
        assert links_toward_source([5]) == []

    def test_scoring(self):
        truth = {(1, 2), (2, 3)}
        score = score_as_graph(
            "t", [[1, 2, 3], [4, 2]], truth
        )
        assert score.inferred == {(1, 2), (2, 3), (4, 2)}
        assert score.correctness() == pytest.approx(2 / 3)
        assert score.ases_covered == {1, 2, 4}
        assert score.completeness(8) == pytest.approx(3 / 8)

    def test_empty_score(self):
        score = score_as_graph("t", [], set())
        assert score.correctness() == 0.0
        assert score.completeness(10) == 0.0
