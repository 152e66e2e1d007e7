"""Self-test of the benchmark harness, at ``--quick`` size.

Run with ``python -m pytest benchmarks/e2e -q`` (outside tier-1's
``testpaths``).  Every run here is a child process, exactly as the
driver would start it.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import metrics as M  # noqa: E402
import workloads as W  # noqa: E402
from run import WORKLOADS  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def run(workload: str, trace: int, seed: int = 7):
    done = subprocess.run(
        [
            sys.executable, os.path.join(HERE, "run.py"),
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(M.RUN_SECONDS), "--trace", str(trace),
            "--quick",
        ],
        stdout=subprocess.PIPE,
        text=True,
        timeout=170,
    )
    assert done.returncode == 0, done.stdout[-2000:]
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2][len("info "):])


@pytest.fixture(scope="module")
def runs():
    return {
        (workload, trace): run(workload, trace)
        for workload in WORKLOADS
        for trace in (0, 1)
    }


def test_benchmark_json_matches_the_tables():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        committed = json.load(handle)
    whys = {name: W.SPECS[name].why for name in WORKLOADS}
    assert committed == M.benchmark_json(whys)


def test_names_and_counts_fit_the_contract():
    e2e = [row[0] for row in M.END_TO_END]
    layers = [row[0] for row in M.PER_LAYER]
    names = list(WORKLOADS) + e2e + layers
    assert tuple(W.SPECS) == WORKLOADS
    assert all(NAME.match(name) for name in names)
    assert len(set(names)) == len(names)
    assert 2 <= len(WORKLOADS) <= 8
    assert len(e2e) <= 16 and len(layers) <= 128
    assert "setup_s" in e2e
    assert all(0 < row[3] <= 0.25 for row in M.END_TO_END)
    assert all(len(W.SPECS[name].why) <= 200 for name in WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_emits_every_end_to_end_metric(runs, workload):
    result, info = runs[workload, 0]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == info["requests"] >= 1
    assert list(result["metrics"]) == [row[0] for row in M.END_TO_END]
    for name, unit, _, _ in M.END_TO_END:
        assert result["metrics"][name]["unit"] == unit


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_emits_the_ledger_and_it_sums_to_one(runs, workload):
    result, info = runs[workload, 1]
    assert result["correct"], info["failures"]
    metrics = result["metrics"]
    assert list(metrics) == [row[0] for row in M.PER_LAYER]
    shares = [
        entry["value"]
        for name, entry in metrics.items()
        if name.endswith(".share")
    ]
    total = sum(shares) + metrics["ledger.residual_frac"]["value"]
    assert abs(total - 1.0) < 1e-6
    assert metrics["core.revtr.measure_calls"]["value"] >= info["requests"]
    assert metrics["service.sched.rejected"]["value"] == 0
    assert os.path.exists(
        os.path.join(HERE, "out", f"trace_{workload}.json")
    )


@pytest.mark.parametrize("workload", WORKLOADS)
def test_two_processes_agree_exactly(runs, workload):
    # The untraced run and the traced run's own untraced pass are two
    # processes given the same seed.
    _, untraced = runs[workload, 0]
    _, traced = runs[workload, 1]
    assert untraced["result_digest"] == traced["result_digest"]
    assert untraced["simulated"] == traced["simulated"]


def test_another_seed_gives_another_stream(runs):
    _, other = run("cold_sweep", 0, seed=8)
    assert other["result_digest"] != runs["cold_sweep", 0][1]["result_digest"]


def test_layers_only_the_faulted_workload_uses(runs):
    for workload in WORKLOADS:
        metrics = runs[workload, 1][0]["metrics"]
        faulted = workload == "faulted_ops"
        assert (metrics["obs.calls"]["value"] > 0) == faulted
        assert (metrics["sim.faults.hook_calls"]["value"] > 0) == faulted
    churn = runs["route_churn", 1][0]["metrics"]
    assert churn["sim.invalidations"]["value"] == 8
    hot = runs["hot_repeat", 1][0]["metrics"]
    assert hot["core.segcache.lookups"]["value"] > 0


def test_wrappers_are_fully_restored():
    from repro.obs import Instrumentation
    from repro.sim.network import Internet
    from tracer import TARGETS, LayerTracer

    import repro.core.atlas as atlas_module
    from repro.probing.traceroute import paris_traceroute

    originals = {
        (cls, method): cls.__dict__[method]
        for targets in TARGETS.values()
        for cls, methods in targets
        for method in methods
    }
    obs = Instrumentation()
    bound = (obs.span, obs.emit, obs.emit_t)
    tracer = LayerTracer()
    tracer.install(obs)
    assert Internet.send_probe is not originals[Internet, "send_probe"]
    assert atlas_module.paris_traceroute is not paris_traceroute
    assert obs.span != bound[0]
    tracer.uninstall()
    for (cls, method), orig in originals.items():
        assert cls.__dict__[method] is orig
    assert atlas_module.paris_traceroute is paris_traceroute
    assert (obs.span, obs.emit, obs.emit_t) == bound
