"""One benchmark run: set-up, calibrated timed phase, checks, metrics.

A run drives one workload through the real front door —
``RevtrService.add_user/add_source`` → ``RequestScheduler.submit`` →
``RequestScheduler.step`` until drained → ``Job.result`` /
``MeasurementStore`` — in a closed loop: every request of a wave is
submitted, then ``step()`` is called until it returns ``None``, and only
then is the next wave submitted.  One thread; the generator and the
program share it.

Host time is reported in *reference-machine seconds*.  The VM this runs
on drifts by tens of percent between identical runs, but a fixed
pure-Python kernel run next to the work drifts with it, so every timed
interval is divided by ``mean(adjacent kernel times) / CALIB_REF_S``.
Kernel time is excluded from every metric.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import random
import resource
import statistics
import time
import traceback
from typing import Any, Dict, List, Optional, Tuple

import metrics as M
import workloads as W
from repro.core.result import HopTechnique, RevtrStatus
from repro.service import JobState, RejectReason
from tracer import LAYERS, LayerTracer

#: The unit of "reference-machine seconds": what the calibration kernel
#: took on the box the baseline was recorded on.  A constant, so two
#: commits measured with this harness share one unit.
CALIB_REF_S = 0.045
#: Timed work between two calibration kernels.
CHUNK_S = 0.25
#: Full set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 2
#: Completed requests checked against the simulator's ground truth.
ORACLE_SAMPLE = 2000

OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")


class Calibrator:
    """A fixed kernel shaped like the program: pointer chasing over
    many small heap objects plus str-keyed dict lookups."""

    NODES = 400_000
    HOPS = 80_000
    TABLE = 100_000
    KEYS = 30_000

    def __init__(self) -> None:
        rng = random.Random(0xCA11B)
        order = list(range(self.NODES))
        rng.shuffle(order)
        nodes = [[i, None] for i in range(self.NODES)]
        for here, there in zip(order, order[1:] + order[:1]):
            nodes[here][1] = nodes[there]
        self._head = nodes[order[0]]
        self._table = {
            f"10.{i >> 8}.{i & 255}.1": i for i in range(self.TABLE)
        }
        self._keys = rng.sample(list(self._table), self.KEYS)
        self.times: List[float] = []

    def __call__(self) -> float:
        start = time.perf_counter()
        node = self._head
        acc = 0
        for _ in range(self.HOPS):
            node = node[1]
            acc += node[0]
        table = self._table
        for key in self._keys:
            acc += table[key]
        self._head = node
        elapsed = time.perf_counter() - start
        self.times.append(elapsed)
        return elapsed


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile of a non-empty list."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


# ----------------------------------------------------------------------
# The timed phase
# ----------------------------------------------------------------------


def drive(
    world: W.World, calib: Calibrator, tracer: Optional[LayerTracer] = None
) -> Dict[str, Any]:
    """Submit and drain every wave; returns host-time measurements.

    Only the segments around program calls are timed (control-plane
    ops + submits of a wave, and each ``step()``); harness bookkeeping
    between them is not.  A calibration kernel runs whenever
    ``CHUNK_S`` of timed work has accumulated.
    """
    now = time.perf_counter
    scheduler = world.scheduler
    step, submit = scheduler.step, scheduler.submit
    internet, registry = world.scenario.internet, world.registry
    background = world.scenario.background_counter
    keys = world.api_keys

    raw_s = norm_s = calib_units = 0.0
    drifts: List[float] = []
    step_ms: List[float] = []  # drift-corrected
    pending: List[float] = []  # raw step times of the open chunk
    chunk_s = 0.0
    refresh_probes = 0
    kernel_before = calib()

    def close_chunk() -> None:
        nonlocal raw_s, norm_s, calib_units, chunk_s, kernel_before
        kernel_after = calib()
        kernel = (kernel_before + kernel_after) / 2.0
        drift = kernel / CALIB_REF_S
        raw_s += chunk_s
        norm_s += chunk_s / drift
        calib_units += chunk_s / kernel
        drifts.append(drift)
        step_ms.extend(t * 1e3 / drift for t in pending)
        pending.clear()
        chunk_s = 0.0
        kernel_before = kernel_after

    index = 0
    for wave in world.waves:
        start = now()
        for op in wave.ops:
            if op[0] == "invalidate":
                internet.invalidate_routing()
            else:
                before = background.total()
                registry.refresh_atlas(op[1])
                refresh_probes += background.total() - before
        for user, src, dst in wave.requests:
            submit(keys[user], dst, src)
        chunk_s += now() - start
        while True:
            if chunk_s >= CHUNK_S:
                close_chunk()
            if tracer is not None:
                tracer.begin_request(index)
            start = now()
            job = step()
            elapsed = now() - start
            chunk_s += elapsed
            if job is None:
                break
            pending.append(elapsed)
            if tracer is not None:
                tracer.end_request(job.id)
            index += 1
    close_chunk()
    return {
        "raw_s": raw_s,
        "norm_s": norm_s,
        "calib_units": calib_units,
        "steps": len(step_ms),
        "step_ms_p50": statistics.median(step_ms),
        "step_ms_p99": percentile(step_ms, 0.99),
        "drift_p50": statistics.median(drifts),
        "drift_max": max(drifts),
        "refresh_probes": refresh_probes,
    }


# ----------------------------------------------------------------------
# What the run produced: simulated metrics, digest, output checks
# ----------------------------------------------------------------------


def hop_on_true_path_frac(world: W.World, done: list) -> float:
    """Share of reported, non-assumed router hops that lie on the
    simulator's true reverse path (destination → source)."""
    internet = world.scenario.internet
    # The oracle walks real probes: lift the faults so none is dropped.
    internet.faults = None
    stride = max(1, len(done) // ORACLE_SAMPLE)
    on_path = total = 0
    for job in done[::stride]:
        truth = set(internet.ground_truth_router_path(job.dst, job.src))
        for hop in job.result.hops:
            if hop.technique is HopTechnique.ASSUMED_SYMMETRY:
                continue
            router = internet.router_of(hop.addr)
            if router is not None:
                total += 1
                on_path += router.router_id in truth
    return on_path / total if total else 0.0


def outcome(world: W.World) -> Dict[str, Any]:
    """Everything about a drained run that must repeat exactly for a
    given (code, seed, --seconds), plus the output checks."""
    scheduler, service = world.scheduler, world.service
    jobs = scheduler.jobs
    done = [job for job in jobs if job.state is JobState.DONE]
    rejected = [job for job in jobs if job.state is JobState.REJECTED]
    failures: List[str] = []
    if len(done) + len(rejected) != len(jobs):
        failures.append(
            f"lost jobs: {len(done)} done + {len(rejected)} rejected "
            f"!= {len(jobs)} submitted"
        )
    if len(jobs) != world.n_requests:
        failures.append("not every generated request was submitted")
    # The store archives every executed attempt, retried ones included.
    if len(service.store) != len(done) + scheduler.retries:
        failures.append(
            f"store holds {len(service.store)} records for "
            f"{len(done)} completions + {scheduler.retries} retries"
        )
    for job in rejected:
        if not isinstance(job.reject_reason, RejectReason):
            failures.append(f"job {job.id} rejected without a typed reason")
            break
    if any(job.result is None for job in done):
        failures.append("a completed job carries no result")
    if rejected:
        # Every workload is built so that no operation fails.
        reasons = sorted(
            {getattr(job.reject_reason, "value", "?") for job in rejected}
        )
        failures.append(f"{len(rejected)} requests refused: {reasons}")
    if not done:
        failures.append("no request completed")
        return {"failures": failures, "failed": len(rejected)}

    digest = hashlib.sha256()
    for job in jobs:
        doc = (
            job.result.to_dict()
            if job.state is JobState.DONE
            else {"rejected": getattr(job.reject_reason, "value", None)}
        )
        digest.update(json.dumps(doc, sort_keys=True).encode())
    durations = [job.result.duration for job in done]
    complete = sum(
        1 for job in done if job.result.status is RevtrStatus.COMPLETE
    )
    statuses: Dict[str, int] = {}
    for job in done:
        key = job.result.status.value
        statuses[key] = statuses.get(key, 0) + 1
    # Queue wait on the lane timeline, from the instant the wave's
    # first job started (later waves are submitted at a serial-clock
    # reading the lane timelines never reach).
    waits: List[float] = []
    position = 0
    for wave in world.waves:
        started = [
            job.started_at
            for job in jobs[position: position + len(wave.requests)]
            if job.state is JobState.DONE
        ]
        position += len(wave.requests)
        if started:
            first = min(started)
            waits.extend(t - first for t in started)
    online = world.scenario.online_counter.total()
    return {
        "failures": failures,
        "submitted": len(jobs),
        "completed": len(done),
        "failed": len(rejected),
        "statuses": dict(sorted(statuses.items())),
        "result_digest": digest.hexdigest(),
        "queue_wait_virtual_s_p50": statistics.median(waits),
        "simulated": {
            "revtr_virtual_s_p75": percentile(durations, 0.75),
            "revtr_virtual_s_p95": percentile(durations, 0.95),
            "virtual_ops_per_s": scheduler.report().throughput,
            "probes_per_revtr": online / len(done),
            "complete_frac": complete / len(jobs),
            "hop_on_true_path_frac": hop_on_true_path_frac(world, done),
        },
    }


def run_pass(
    world: W.World, calib: Calibrator, tracer: Optional[LayerTracer] = None
) -> Dict[str, Any]:
    timing = drive(world, calib, tracer)
    if tracer is not None:
        tracer.uninstall()
    # Read before the ground-truth oracle walks its own probes.
    after = counters(world)
    return {"timing": timing, "counters": after, **outcome(world)}


def end_to_end(
    result: Dict[str, Any], setup_s: float
) -> Dict[str, Tuple[float, str]]:
    timing, completed = result["timing"], result["completed"]
    values = {
        "setup_s": setup_s,
        "wall_ops_per_s": completed / timing["norm_s"],
        "req_wall_ms_p50": timing["step_ms_p50"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "norm_cost_per_req": timing["calib_units"] / completed,
        **result["simulated"],
    }
    return {name: (values[name], unit) for name, unit, _, _ in M.END_TO_END}


# ----------------------------------------------------------------------
# The per-layer ledger
# ----------------------------------------------------------------------


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def counters(world: W.World) -> Dict[str, Any]:
    """Cumulative program tallies, read before and after the traced
    pass so set-up work is not charged to it."""
    sc = world.scenario
    events = world.obs.events if world.obs is not None else None
    return {
        "fwd": sc.internet.forwarding_cache_stats()["caches"],
        "probes": sum(sc.internet.probe_outcome_counts.values()),
        "online": sc.online_counter.total(),
        "background": sc.background_counter.total(),
        "events": events.total if events is not None else 0,
        "events_dropped": events.dropped if events is not None else 0,
        "samples": (
            world.obs.sampler.summary()["total"]
            if world.obs is not None
            else 0
        ),
    }


def per_layer(
    world: W.World,
    tracer: LayerTracer,
    before: Dict[str, Any],
    traced: Dict[str, Any],
    untraced: Dict[str, Any],
    failures: List[str],
) -> Dict[str, Tuple[float, str]]:
    after = traced["counters"]
    timing = traced["timing"]
    wall_raw = timing["raw_s"]
    # Self times are measured raw; report them in reference seconds.
    scale = timing["norm_s"] / wall_raw
    layer_raw = tracer.layer_self_s()
    residual_raw = wall_raw - tracer.top_level_s
    total = (sum(layer_raw.values()) + residual_raw) / wall_raw
    if abs(total - 1.0) > 1e-6:
        failures.append(f"ledger shares sum to {total!r}, not 1")

    n, self_s = tracer.n_calls, tracer.fn_self_s
    completed = traced["completed"]

    def hit_frac(kind: str) -> float:
        hits = after["fwd"][kind]["hits"] - before["fwd"][kind]["hits"]
        misses = (
            after["fwd"][kind]["misses"] - before["fwd"][kind]["misses"]
        )
        return _ratio(hits, hits + misses)

    engines = tracer.receivers["RevtrEngine.measure"]
    caches = [engine.cache for engine in engines]
    segcaches = {
        id(engine.segcache): engine.segcache
        for engine in engines
        if engine.segcache is not None
    }.values()
    seg = {
        key: sum(getattr(cache.stats, key) for cache in segcaches)
        for key in ("lookups", "hits", "negative_hits", "stores",
                    "splices", "invalidations")
    }
    steps = {kind: 0 for kind in M.STEP_KINDS}
    retries = 0
    for engine in engines:
        for kind, count in engine.step_counts.items():
            steps[kind] += count
        retries += sum(engine.retry_counts.values())
    probes = after["probes"] - before["probes"]
    single = n("Internet.send_probe")
    sim_self = layer_raw["sim"] * scale
    health = world.health.snapshot() if world.health is not None else {}
    injected = (
        world.injector.snapshot()["total"]
        if world.injector is not None
        else 0
    )
    rejected = sum(world.scheduler.rejections.values())
    policy = [
        f"RoutingPolicy.{m}"
        for m in ("routes", "route_of", "next_hop_as", "as_path")
    ]

    values: Dict[str, float] = {
        "topology.policy.routes_calls": n(*policy),
        "topology.policy.routes_self_s": self_s(*policy) * scale,
        "sim.send_calls": single + n("Internet.send_probe_batch"),
        "sim.probes": probes,
        "sim.batch_probe_frac": _ratio(probes - single, probes),
        "sim.self_s": sim_self,
        "sim.us_per_probe": _ratio(sim_self * 1e6, probes),
        "sim.fib_hit_frac": hit_frac("fib"),
        "sim.fib_entries": after["fwd"]["fib"]["entries"],
        "sim.resolve_hit_frac": hit_frac("resolve"),
        "sim.lpm_hit_frac": hit_frac("lpm"),
        "sim.invalidations": n("Internet.invalidate_routing"),
        "sim.faults.hook_calls": tracer.layer_calls("sim.faults"),
        "sim.faults.self_s": layer_raw["sim.faults"] * scale,
        "sim.faults.injected": injected,
        "probing.ping_calls": n("Prober.ping"),
        "probing.rr_ping_calls": n("Prober.rr_ping"),
        "probing.rr_batch_calls": n("Prober.rr_ping_batch"),
        "probing.spoofed_batch_calls": n("Prober.spoofed_rr_batch"),
        "probing.ts_ping_calls": n("Prober.ts_ping"),
        "probing.traceroute_calls": n("paris_traceroute"),
        "probing.self_s": layer_raw["probing"] * scale,
        "probing.probes_online": after["online"] - before["online"],
        "probing.probes_background": (
            after["background"] - before["background"]
        ),
        "probing.vp_quarantines": health.get("quarantines", 0),
        "probing.vp_replacements": health.get("replacements", 0),
        "core.revtr.measure_calls": n("RevtrEngine.measure"),
        "core.revtr.self_s": layer_raw["core.revtr"] * scale,
        "core.revtr.self_us_per_req": _ratio(
            layer_raw["core.revtr"] * scale * 1e6, completed
        ),
        "core.revtr.retries": retries,
        **{f"core.revtr.steps.{k}": v for k, v in steps.items()},
        "core.cache.gets": n("MeasurementCache.get"),
        "core.cache.puts": n("MeasurementCache.put"),
        "core.cache.hit_frac": _ratio(
            sum(c.stats.hits for c in caches),
            sum(c.stats.lookups for c in caches),
        ),
        "core.cache.entries": sum(len(c) for c in caches),
        "core.cache.evictions": sum(c.stats.evictions for c in caches),
        "core.cache.self_s": layer_raw["core.cache"] * scale,
        "core.segcache.lookups": seg["lookups"],
        "core.segcache.hit_frac": _ratio(
            seg["hits"] + seg["negative_hits"], seg["lookups"]
        ),
        "core.segcache.stores": seg["stores"],
        "core.segcache.splices": seg["splices"],
        "core.segcache.invalidations": seg["invalidations"],
        "core.segcache.self_s": layer_raw["core.segcache"] * scale,
        "core.atlas.lookups": n("TracerouteAtlas.lookup"),
        "core.atlas.hit_frac": _ratio(
            tracer.hits["TracerouteAtlas.lookup"],
            n("TracerouteAtlas.lookup"),
        ),
        "core.atlas.self_s": self_s(
            "TracerouteAtlas.lookup", "TracerouteAtlas.suffix"
        ) * scale,
        "core.atlas.refresh_calls": n("TracerouteAtlas.refresh"),
        "core.atlas.refresh_self_s": (
            self_s("TracerouteAtlas.refresh") * scale
        ),
        "core.atlas.refresh_probes": timing["refresh_probes"],
        "core.rr_atlas.lookups": n("RRAtlas.lookup"),
        "core.rr_atlas.hit_frac": _ratio(
            tracer.hits["RRAtlas.lookup"], n("RRAtlas.lookup")
        ),
        "core.rr_atlas.self_s": self_s("RRAtlas.lookup") * scale,
        "core.ingress.sessions": n("IngressSelector.session"),
        "core.ingress.batches": n(
            "IngressSelector.batches", "IngressProbeSession.next_batch"
        ),
        "core.ingress.self_s": layer_raw["core.ingress"] * scale,
        "alias.resolver.calls": n("AliasResolver."),
        "alias.resolver.self_s": layer_raw["alias"] * scale,
        "asmap.ip2as.calls": n("IPToASMapper."),
        "asmap.ip2as.self_s": self_s("IPToASMapper.") * scale,
        "service.sched.submit_calls": n("RequestScheduler.submit"),
        "service.sched.submit_self_s": (
            self_s("RequestScheduler.submit") * scale
        ),
        "service.sched.step_calls": n("RequestScheduler.step"),
        "service.sched.step_self_s": (
            self_s("RequestScheduler.step") * scale
        ),
        "service.sched.retries": world.scheduler.retries,
        "service.sched.rejected": rejected,
        "service.sched.queue_wait_virtual_s_p50": (
            traced["queue_wait_virtual_s_p50"]
        ),
        "service.store.append_calls": n("MeasurementStore.append"),
        "service.store.append_self_s": (
            self_s("MeasurementStore.append") * scale
        ),
        "service.users.charge_self_s": self_s("User.charge") * scale,
        # From the untraced pass: wrappers inflate a step's tail.
        "service.step_wall_ms_p99": untraced["timing"]["step_ms_p99"],
        "obs.calls": tracer.layer_calls("obs"),
        "obs.self_s": layer_raw["obs"] * scale,
        "obs.events_emitted": after["events"] - before["events"],
        "obs.events_dropped": (
            after["events_dropped"] - before["events_dropped"]
        ),
        "obs.sampler_samples": after["samples"] - before["samples"],
        "ledger.traced_wall_s": timing["norm_s"],
        "ledger.residual_frac": residual_raw / wall_raw,
        "ledger.trace_overhead_frac": (
            timing["norm_s"] / untraced["timing"]["norm_s"] - 1.0
        ),
    }
    for layer in LAYERS:
        values[f"{layer}.share"] = layer_raw[layer] / wall_raw
    return {name: (values[name], unit) for name, unit, _ in M.PER_LAYER}


# ----------------------------------------------------------------------
# One run
# ----------------------------------------------------------------------


def _untraced_in_fork(world: W.World, calib: Calibrator) -> Dict[str, Any]:
    """Run the untraced pass in a forked copy of the set-up world, so
    the traced pass starts from the identical state and both passes
    receive the same inputs."""
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        # The copy must never return into the caller's stack.
        try:
            os.close(read_fd)
            payload = json.dumps(run_pass(world, calib)).encode()
            with os.fdopen(write_fd, "wb") as pipe:
                pipe.write(payload)
            os._exit(0)
        except BaseException:
            traceback.print_exc()
            os._exit(1)
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as pipe:
        payload = pipe.read()
    _, status = os.waitpid(pid, 0)
    if status != 0 or not payload:
        raise RuntimeError(f"untraced pass failed (wait status {status})")
    return json.loads(payload)


def run_one(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    quick: bool,
    import_raw_s: float,
) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    """Returns (result, info): *result* is the contract's last-line
    object, *info* the details printed above it."""
    spec = W.SPECS[workload]
    calib = Calibrator()
    kernel = calib()
    import_s = import_raw_s / (kernel / CALIB_REF_S)

    # Set-up, several times over when it is the thing being measured.
    setups: List[float] = []
    world = None
    for _ in range(1 if trace else SETUP_REPEATS):
        world = None
        gc.collect()
        kernel_before = calib()
        start = time.perf_counter()
        world = W.build_world(spec, seed, seconds, quick)
        elapsed = time.perf_counter() - start
        drift = (kernel_before + calib()) / 2.0 / CALIB_REF_S
        setups.append(elapsed / drift)
    setup_s = import_s + statistics.median(setups)
    gc.collect()
    gc.freeze()

    info: Dict[str, Any] = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "quick": quick,
        "requests": world.n_requests,
        "setup_repeats_s": setups,
        "calib_ref_s": CALIB_REF_S,
    }
    if not trace:
        result = run_pass(world, calib)
        failures = result["failures"]
        metrics = end_to_end(result, setup_s) if not failures else {}
    else:
        untraced = _untraced_in_fork(world, calib)
        before = counters(world)
        tracer = LayerTracer()
        tracer.install(world.obs)
        try:
            result = run_pass(world, calib, tracer)
        finally:
            tracer.uninstall()
        failures = result["failures"] + untraced["failures"]
        # Same inputs, same state: both passes must agree exactly.
        for key in ("result_digest", "simulated", "statuses"):
            if result.get(key) != untraced.get(key):
                failures.append(
                    f"traced and untraced passes disagree on {key}: "
                    f"{result.get(key)!r} != {untraced.get(key)!r}"
                )
        metrics = (
            per_layer(world, tracer, before, result, untraced, failures)
            if not failures
            else {}
        )
        os.makedirs(OUT_DIR, exist_ok=True)
        with open(
            os.path.join(OUT_DIR, f"trace_{workload}.json"), "w"
        ) as handle:
            json.dump(tracer.dump(), handle)
        info["untraced_timing"] = untraced["timing"]
    info.update(
        {key: value for key, value in result.items() if key != "failures"}
    )
    info["calib_kernel_s_p50"] = statistics.median(calib.times)
    info["failures"] = failures
    return (
        {
            "correct": not failures,
            "attempted": result.get("submitted", world.n_requests),
            "failed": result["failed"],
            "metrics": {
                name: {"value": value, "unit": unit}
                for name, (value, unit) in metrics.items()
            },
        },
        info,
    )
