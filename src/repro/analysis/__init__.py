"""Analysis: accuracy, coverage, and asymmetry metrics.

The measurement-comparison machinery of Section 5 (accuracy against
direct traceroutes, reverse-AS-graph correctness/completeness) and
Section 6.2 (path-asymmetry metrics), plus small distribution helpers
shared by the benchmark reports.
"""

from repro.analysis.accuracy import PathComparison, compare_paths
from repro.analysis.asymmetry import (
    asymmetry_prevalence,
    hop_symmetry_fraction,
    positional_symmetry,
)
from repro.analysis.coverage import ASGraphScore, score_as_graph
from repro.analysis.hidden_providers import (
    HiddenProviderReport,
    find_hidden_providers,
)
from repro.analysis.stats import fraction_leq, median, percentile
from repro.analysis.throughput import (
    ThroughputProjection,
    project_throughput,
)

__all__ = [
    "PathComparison",
    "compare_paths",
    "asymmetry_prevalence",
    "hop_symmetry_fraction",
    "positional_symmetry",
    "ASGraphScore",
    "score_as_graph",
    "HiddenProviderReport",
    "find_hidden_providers",
    "fraction_leq",
    "median",
    "percentile",
    "ThroughputProjection",
    "project_throughput",
]
