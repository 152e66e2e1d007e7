"""Experiment harnesses: one module per paper table/figure.

Each ``exp_*`` module exposes a ``run(...)`` function returning a
result object with paper-reference values attached, and a
``format_report(...)`` helper that prints the same rows/series the
paper reports. The rows of ``CLAIMS`` in ``benchmarks/claims.py``
call these: one row per table or figure, each with a campaign, a
formatter and a check.
"""

from repro.experiments.common import Scenario, SourceBundle

__all__ = ["Scenario", "SourceBundle"]
