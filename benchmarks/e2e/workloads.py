"""The four benchmark workloads: set-up and request-stream generation.

A workload is a :class:`Spec` (which knobs of the public configuration
it sets and how its request stream is shaped) plus :func:`build_world`,
which performs the whole set-up — topology, ingress survey, service,
source bootstrap, request stream — and returns a :class:`World` the
harness drives.  Nothing here is timed; the harness times it from
outside.  No code under ``src/`` learns a workload's name: the program
receives only the configuration objects and the generated requests.
"""

from __future__ import annotations

import dataclasses
import itertools
import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.core.revtr import EngineConfig
from repro.experiments import Scenario
from repro.obs import Instrumentation
from repro.obs.timeseries import install_sampler
from repro.service import RevtrService, SchedulerConfig, SourceRegistry
from repro.sim.faults import FaultPlan, FaultSpec
from repro.topology import TopologyConfig

#: The environment every run measures in is fixed: the simulated
#: Internet, the deployment's surveys and atlas vantage points, and
#: which destinations are popular.  ``--seed`` draws the request stream
#: and the fault plan.  Measured over ten seeds, a per-seed topology
#: moves ``complete_frac`` by 16 % (quartile distance over median) and a
#: per-seed popular set moves it by 18 % on the repeat workload — more
#: than any bound could hold — while a per-seed stream moves it by ~1 %.
ENV_SEED = 7
ATLAS_SIZE = 20
LANES = 4
MAX_PARALLEL = 4

#: A request: (user index, source address, destination address).
Request = Tuple[int, str, str]


@dataclass
class Wave:
    """Requests submitted together, after *ops* ran; drained before the
    next wave is submitted (closed loop)."""

    requests: List[Request]
    #: control-plane operations executed (and timed) before the
    #: submits: ``("invalidate",)`` or ``("refresh", source)``
    ops: List[tuple] = field(default_factory=list)


@dataclass(frozen=True)
class Spec:
    name: str
    why: str
    #: requests per second of ``--seconds`` (sized on the reference
    #: machine so the untraced timed phase lasts about ``--seconds``)
    reqs_per_second: int
    n_sources: int
    n_users: int
    n_waves: int
    #: Zipf exponent of the per-user request share (0 = equal share)
    user_zipf: float = 0.0
    #: >0: destinations ~ Zipf(dst_zipf) over a fixed working set
    #: instead of unique pairs
    dst_zipf: float = 0.0
    working_set: int = 0
    #: turn the shipped reuse features on through the public config
    reuse: bool = False
    #: invalidate routing and refresh every atlas before each wave
    churn: bool = False
    #: full Instrumentation + sampler, VP health, fault plan, retries
    faulted: bool = False


SPECS: Dict[str, Spec] = {
    spec.name: spec
    for spec in (
        Spec(
            name="cold_sweep",
            why="unique (src,dst) pairs, nothing repeats: the packet "
            "walk and engine decisions do the work, reuse caches "
            "are bypassed",
            reqs_per_second=1000,
            n_sources=8,
            n_users=4,
            n_waves=1,
        ),
        Spec(
            name="hot_repeat",
            why="Zipf users and Zipf repeat targets with the reuse "
            "caches on: caches, scheduler and per-request "
            "accounting do the work, the packet walk little",
            reqs_per_second=3500,
            n_sources=2,
            n_users=8,
            n_waves=1,
            user_zipf=1.0,
            dst_zipf=1.1,
            working_set=400,
            reuse=True,
        ),
        Spec(
            name="route_churn",
            why="routing invalidated and atlases refreshed before "
            "every wave: the write/invalidate side of every memo "
            "plus control-plane recompute",
            reqs_per_second=120,
            n_sources=4,
            n_users=8,
            n_waves=8,
            churn=True,
        ),
        Spec(
            name="faulted_ops",
            why="loss, rate limits and a VP outage with full "
            "observability on: retries, quarantine and the obs "
            "stack run only here",
            reqs_per_second=200,
            n_sources=4,
            n_users=8,
            n_waves=4,
            user_zipf=1.0,
            faulted=True,
        ),
    )
}


@dataclass
class World:
    """Everything one run drives and inspects afterwards."""

    scenario: Scenario
    registry: SourceRegistry
    service: RevtrService
    scheduler: Any
    api_keys: List[str]
    waves: List[Wave]
    #: live Instrumentation on the faulted workload, else None
    obs: Optional[Instrumentation] = None
    injector: Any = None
    health: Any = None

    @property
    def n_requests(self) -> int:
        return sum(len(wave.requests) for wave in self.waves)


def _zipf_weights(n: int, exponent: float) -> List[float]:
    return [1.0 / (rank ** exponent) for rank in range(1, n + 1)]


def _has_field(cls, name: str) -> bool:
    return any(f.name == name for f in dataclasses.fields(cls))


def _configs(spec: Spec, n_requests: int):
    """Engine and scheduler configuration through public fields only."""
    engine: Dict[str, Any] = {}
    # The bound is enforced on every submit but sized so it never
    # trips: the benchmark's contract wants workloads on which no
    # operation fails, so typed queue-full rejections stay at zero.
    sched: Dict[str, Any] = {
        "parallelism": LANES,
        "max_queue_per_user": n_requests,
    }
    if spec.reuse:
        # Set only where the field exists, so the workload survives
        # the flags being retired in favour of a single path.
        for name in ("segment_cache", "coalesce_batches"):
            if _has_field(EngineConfig, name):
                engine[name] = True
        if _has_field(SchedulerConfig, "coalesce"):
            sched["coalesce"] = True
    if spec.faulted:
        engine.update(retry_budget=4, recheck_unresponsive=True)
        sched["max_retries"] = 2
    return EngineConfig(**engine), SchedulerConfig(**sched)


#: The serial virtual clock advances by every measurement's duration,
#: so this covers roughly the first third of a faulted run: long enough
#: for quarantine and replacement, short enough that VPs requalify.
OUTAGE_VIRTUAL_S = 6_000.0


def _fault_plan(seed: int, scenario: Scenario, sources, t0: float):
    """1 % link loss, ICMP rate limiting, and a quarter of the
    non-source spoofers down for the first stretch of the run.

    Milder than the shipped ``mixed`` preset on purpose: at its 15 %
    per-link loss most requests end ``destination-unresponsive``,
    which measures collapse, not degradation.
    """
    plan = FaultPlan(seed=seed)
    plan.add(FaultSpec(kind="link-loss", rate=0.01, label="loss-1pct"))
    plan.add(
        FaultSpec(
            kind="router-rate-limit",
            limit=3,
            window=10.0,
            label="icmp-3-per-10s",
        )
    )
    spoofers = sorted(set(scenario.spoofer_addrs) - set(sources))
    random.Random(seed ^ 0xFA17).shuffle(spoofers)
    down = tuple(spoofers[: len(spoofers) // 4])
    if down:
        plan.add(
            FaultSpec(
                kind="vp-outage",
                start=t0,
                end=t0 + OUTAGE_VIRTUAL_S,
                vps=down,
                label="quarter-fleet-outage",
            )
        )
    return plan


def _requests(spec: Spec, rng: random.Random, sources, dsts, n: int):
    """The seeded request stream, as a flat list."""
    if spec.user_zipf:
        users = rng.choices(
            range(spec.n_users),
            weights=_zipf_weights(spec.n_users, spec.user_zipf),
            k=n,
        )
    else:
        users = [i % spec.n_users for i in range(n)]
    if spec.dst_zipf:
        # Which destinations are popular, and in what order, is part
        # of the environment; the seed draws requests from it.
        hot = random.Random(ENV_SEED).sample(
            dsts, min(spec.working_set, len(dsts))
        )
        picked = rng.choices(
            hot, weights=_zipf_weights(len(hot), spec.dst_zipf), k=n
        )
        pairs = [(rng.choice(sources), dst) for dst in picked]
    else:
        # Unique pairs, drawn without replacement.
        universe = list(itertools.product(sources, dsts))
        if n > len(universe):
            raise ValueError(
                f"{spec.name}: {n} unique pairs wanted, "
                f"{len(universe)} exist"
            )
        pairs = rng.sample(universe, n)
    return [(user, src, dst) for user, (src, dst) in zip(users, pairs)]


def build_world(
    spec: Spec, seed: int, seconds: float, quick: bool = False
) -> World:
    """The whole set-up for one run; deterministic in its arguments."""
    n_requests = int(spec.reqs_per_second * seconds)
    if quick:
        # Self-test size: tiny topology, 1/20 of the requests.
        topology = TopologyConfig.tiny(ENV_SEED)
        n_requests //= 20
    else:
        topology = TopologyConfig.large(ENV_SEED)
    n_requests = max(n_requests, spec.n_waves)

    obs = None
    if spec.faulted:
        obs = Instrumentation()
        install_sampler(obs)
    scenario = Scenario(
        config=topology,
        seed=ENV_SEED,
        atlas_size=ATLAS_SIZE,
        instrumentation=obs,
    )
    registry = SourceRegistry(
        scenario.internet,
        scenario.background_prober,
        scenario.atlas_vp_addrs,
        scenario.spoofer_addrs,
        atlas_size=ATLAS_SIZE,
        seed=ENV_SEED,
    )
    engine_config, sched_config = _configs(spec, n_requests)
    service = RevtrService(
        prober=scenario.online_prober,
        registry=registry,
        selector=scenario.selector("revtr2.0"),
        ip2as=scenario.ip2as,
        relationships=scenario.relationships,
        resolver=scenario.resolver,
        engine_config=engine_config,
        instrumentation=obs,
    )
    users = [
        service.add_user(
            f"user{i}",
            max_parallel=MAX_PARALLEL,
            max_per_day=10 * n_requests + 1000,
        )
        for i in range(spec.n_users)
    ]
    sources = scenario.sources(spec.n_sources)
    for source in sources:
        service.add_source(users[0].api_key, source)

    rng = random.Random(seed ^ 0xE2E)
    dsts = scenario.responsive_destinations(options_only=True)
    stream = _requests(spec, rng, sources, dsts, n_requests)
    per_wave = -(-n_requests // spec.n_waves)
    waves = []
    for start in range(0, n_requests, per_wave):
        ops: List[tuple] = []
        if spec.churn:
            ops.append(("invalidate",))
            ops.extend(("refresh", source) for source in sources)
        waves.append(Wave(stream[start: start + per_wave], ops))

    world = World(
        scenario=scenario,
        registry=registry,
        service=service,
        scheduler=service.scheduler(sched_config),
        api_keys=[user.api_key for user in users],
        waves=waves,
        obs=obs,
    )
    if spec.faulted:
        # After the bootstrap, so atlases are built fault-free.
        world.health = scenario.install_vp_health()
        world.injector = scenario.install_faults(
            _fault_plan(seed, scenario, sources, scenario.clock.now())
        )
    return world
