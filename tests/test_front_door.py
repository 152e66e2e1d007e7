"""The service verbs on one builder, held to the wiring they replaced.

``repro serve``, ``repro health`` and ``repro top`` build the Appendix
A service with ``Scenario.front_door``: service, users, a fault-free
source bootstrap, VP health then faults when there is a plan, the
scheduler.  ``tests/helpers/reference_cli.py`` keeps the code the
verbs ran before (``_fault_workload``, the ``chaos`` document, the
``serve`` wiring); here the builder-based verbs must produce the same
fault plan, injections, VP-health tallies, engine retries and
scheduler report for every fault preset, for a replayed plan, and for
the ``serve`` demo.  Arming faults before the bootstrap, or letting a
request run before VP health is armed, fails it.
"""

import json

import pytest

from repro.cli import main
from repro.sim.faults import PRESETS
from tests.helpers.reference_cli import (
    CHAOS_DEFAULTS,
    SERVE_DEFAULTS,
    chaos_doc,
    namespace,
    serve_report,
)

GLOBAL = ["--scale", "tiny", "--seed", "7"]
KEYS = ("plan", "faults", "vp_health", "engine_retries", "scheduler")


def run_json(capsys, argv):
    assert main(GLOBAL + argv) == 0
    return json.loads(capsys.readouterr().out)


def five_keys(doc):
    return {key: doc[key] for key in KEYS}


@pytest.mark.parametrize("preset", PRESETS)
def test_health_runs_the_chaos_workload(preset, capsys):
    doc = run_json(
        capsys, ["health", "--preset", preset, "--requests", "6", "--json"]
    )
    oracle = chaos_doc(namespace(CHAOS_DEFAULTS, preset=preset))
    assert five_keys(doc) == five_keys(oracle)


def test_saved_plan_replays_as_it_did(capsys, tmp_path):
    saved, oracle_saved = tmp_path / "plan.json", tmp_path / "oracle.json"
    run_json(
        capsys,
        ["health", "--preset", "mixed", "--requests", "6", "--json",
         "--plan-out", str(saved)],
    )
    chaos_doc(namespace(CHAOS_DEFAULTS, plan_out=str(oracle_saved)))
    assert saved.read_bytes() == oracle_saved.read_bytes()
    doc = run_json(
        capsys, ["health", "--plan", str(saved), "--requests", "6", "--json"]
    )
    oracle = chaos_doc(namespace(CHAOS_DEFAULTS, plan=str(saved)))
    assert doc["preset"] is None
    assert five_keys(doc) == five_keys(oracle)


def test_serve_schedules_as_it_did(capsys):
    doc = run_json(capsys, ["serve", "--json"])
    assert doc == serve_report(namespace(SERVE_DEFAULTS))
