"""Names, units and bounds of every metric, and ``BENCHMARK.json``.

The tables here are the single source: the harness computes a value
for every name, ``BENCHMARK.json`` at the repo root is
:func:`benchmark_json` written out, and the self-test fails if either
drifts from the other.  No stdlib-external imports: the self-test and
the orchestrator load this without the program on the path.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

#: what one driver run measures for (see Spec.reqs_per_second)
RUN_SECONDS = 8

#: (name, unit, better, bound).  *bound* is the share of the parent's
#: median by which the metric may worsen before a change is a
#: regression; each is about three times the widest quartile distance
#: seen for that metric over ten seeds on any workload (README.md has
#: the table).  Host-time metrics are in reference-machine seconds
#: (drift-corrected, see harness.Calibrator).
END_TO_END: List[Tuple[str, str, str, float]] = [
    ("setup_s", "s", "lower", 0.25),
    ("wall_ops_per_s", "req/s", "higher", 0.20),
    ("req_wall_ms_p50", "ms", "lower", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.05),
    ("revtr_virtual_s_p75", "virtual_s", "lower", 0.15),
    ("revtr_virtual_s_p95", "virtual_s", "lower", 0.20),
    ("virtual_ops_per_s", "req/virtual_s", "higher", 0.15),
    ("probes_per_revtr", "probes", "lower", 0.15),
    ("complete_frac", "fraction", "higher", 0.20),
    ("hop_on_true_path_frac", "fraction", "higher", 0.02),
    ("norm_cost_per_req", "calib_units", "lower", 0.20),
]

#: Simulated metrics: pure functions of (code, seed, --seconds), so the
#: untraced and traced passes of one run must agree on them exactly.
SIMULATED = (
    "revtr_virtual_s_p75",
    "revtr_virtual_s_p95",
    "virtual_ops_per_s",
    "probes_per_revtr",
    "complete_frac",
    "hop_on_true_path_frac",
)

STEP_KINDS = (
    "intersect_hit", "intersect_miss", "rr_direct", "rr_spoofed", "ts",
    "symmetry",
)

_C, _S, _F, _US = "count", "s", "fraction", "us"
_LO, _HI = "lower", "higher"

#: (name, unit, better) of each per-layer metric (traced run).
PER_LAYER: List[Tuple[str, str, str]] = [
    ("topology.policy.routes_calls", _C, _LO),
    ("topology.policy.routes_self_s", _S, _LO),
    ("topology.share", _F, _LO),
    ("sim.send_calls", _C, _LO),
    ("sim.probes", _C, _LO),
    ("sim.batch_probe_frac", _F, _HI),
    ("sim.self_s", _S, _LO),
    ("sim.us_per_probe", _US, _LO),
    ("sim.fib_hit_frac", _F, _HI),
    ("sim.fib_entries", _C, _LO),
    ("sim.resolve_hit_frac", _F, _HI),
    ("sim.lpm_hit_frac", _F, _HI),
    ("sim.invalidations", _C, _LO),
    ("sim.share", _F, _LO),
    ("sim.faults.hook_calls", _C, _LO),
    ("sim.faults.self_s", _S, _LO),
    ("sim.faults.injected", _C, _LO),
    ("sim.faults.share", _F, _LO),
    ("probing.ping_calls", _C, _LO),
    ("probing.rr_ping_calls", _C, _LO),
    ("probing.rr_batch_calls", _C, _LO),
    ("probing.spoofed_batch_calls", _C, _LO),
    ("probing.ts_ping_calls", _C, _LO),
    ("probing.traceroute_calls", _C, _LO),
    ("probing.self_s", _S, _LO),
    ("probing.probes_online", _C, _LO),
    ("probing.probes_background", _C, _LO),
    ("probing.vp_quarantines", _C, _LO),
    ("probing.vp_replacements", _C, _LO),
    ("probing.share", _F, _LO),
    ("core.revtr.measure_calls", _C, _LO),
    ("core.revtr.self_s", _S, _LO),
    ("core.revtr.self_us_per_req", _US, _LO),
    ("core.revtr.retries", _C, _LO),
    *[(f"core.revtr.steps.{kind}", _C, _LO) for kind in STEP_KINDS],
    ("core.revtr.share", _F, _LO),
    ("core.cache.gets", _C, _LO),
    ("core.cache.puts", _C, _LO),
    ("core.cache.hit_frac", _F, _HI),
    ("core.cache.entries", _C, _LO),
    ("core.cache.evictions", _C, _LO),
    ("core.cache.self_s", _S, _LO),
    ("core.cache.share", _F, _LO),
    ("core.segcache.lookups", _C, _LO),
    ("core.segcache.hit_frac", _F, _HI),
    ("core.segcache.stores", _C, _LO),
    ("core.segcache.splices", _C, _HI),
    ("core.segcache.invalidations", _C, _LO),
    ("core.segcache.self_s", _S, _LO),
    ("core.segcache.share", _F, _LO),
    ("core.atlas.lookups", _C, _LO),
    ("core.atlas.hit_frac", _F, _HI),
    ("core.atlas.self_s", _S, _LO),
    ("core.atlas.refresh_calls", _C, _LO),
    ("core.atlas.refresh_self_s", _S, _LO),
    ("core.atlas.refresh_probes", _C, _LO),
    ("core.rr_atlas.lookups", _C, _LO),
    ("core.rr_atlas.hit_frac", _F, _HI),
    ("core.rr_atlas.self_s", _S, _LO),
    ("core.atlas.share", _F, _LO),
    ("core.ingress.sessions", _C, _LO),
    ("core.ingress.batches", _C, _LO),
    ("core.ingress.self_s", _S, _LO),
    ("core.ingress.share", _F, _LO),
    ("alias.resolver.calls", _C, _LO),
    ("alias.resolver.self_s", _S, _LO),
    ("asmap.ip2as.calls", _C, _LO),
    ("asmap.ip2as.self_s", _S, _LO),
    ("alias.share", _F, _LO),
    ("asmap.share", _F, _LO),
    ("service.sched.submit_calls", _C, _LO),
    ("service.sched.submit_self_s", _S, _LO),
    ("service.sched.step_calls", _C, _LO),
    ("service.sched.step_self_s", _S, _LO),
    ("service.sched.retries", _C, _LO),
    ("service.sched.rejected", _C, _LO),
    ("service.sched.queue_wait_virtual_s_p50", "virtual_s", _LO),
    ("service.store.append_calls", _C, _LO),
    ("service.store.append_self_s", _S, _LO),
    ("service.users.charge_self_s", _S, _LO),
    ("service.step_wall_ms_p99", "ms", _LO),
    ("service.share", _F, _LO),
    ("obs.calls", _C, _LO),
    ("obs.self_s", _S, _LO),
    ("obs.events_emitted", _C, _LO),
    ("obs.events_dropped", _C, _LO),
    ("obs.sampler_samples", _C, _LO),
    ("obs.share", _F, _LO),
    ("ledger.traced_wall_s", _S, _LO),
    ("ledger.residual_frac", _F, _LO),
    ("ledger.trace_overhead_frac", _F, _LO),
]


def benchmark_json(workloads: Dict[str, str]) -> Dict[str, Any]:
    """The contract document; *workloads* maps name -> why."""
    return {
        "command": ["python3", "benchmarks/e2e/run.py"],
        "paths": ["benchmarks/e2e"],
        "run_seconds": RUN_SECONDS,
        "workloads": [
            {"name": name, "why": why}
            for name, why in workloads.items()
        ],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in END_TO_END
        ],
        "per_layer": [
            {"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER
        ],
    }
