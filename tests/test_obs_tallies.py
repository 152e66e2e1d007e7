"""A pull source reads tallies; it never iterates state whose size
grows with the workload.

The event ring's accounting and the FIB's entry count are tallies
read in O(1) / one C-level slice; these tests hold them to the
walk-everything oracles in ``tests/helpers/reference_obs.py`` and pin
the cost shape of one telemetry sample.
"""

import random

from hypothesis import given, settings, strategies as st

from repro.experiments import Scenario
from repro.obs import Instrumentation
from repro.obs.events import EventLog
from repro.obs.timeseries import install_sampler
from repro.service import RevtrService, SchedulerConfig, SourceRegistry
from repro.sim.faults import FaultPlan, FaultSpec
from repro.topology import TopologyConfig
from tests.helpers.reference_obs import (
    fib_entry_count,
    oracle_accounting,
    ring_accounting,
)

# -- the event ring -----------------------------------------------------

#: ``stall`` leaves a claimed slot at the -1 sentinel: what a reader
#: sees while a concurrent ``emit`` is between invalidate and publish.
RING_OPS = st.lists(
    st.sampled_from(["emit", "emit_t", "clear", "stall"]), max_size=40
)


def stall(log: EventLog) -> None:
    seq = next(log._seq)
    log._slots[seq % log.capacity * 6] = -1


@settings(max_examples=300, deadline=None)
@given(capacity=st.integers(min_value=1, max_value=8), ops=RING_OPS)
def test_ring_accounting_matches_oracle(capacity, ops):
    log = EventLog(capacity=capacity)
    for op in ops:
        if op == "emit":
            log.emit("probe", n=1)
        elif op == "emit_t":
            log.emit_t("splice.negative", ("10.0.0.1",))
        elif op == "clear":
            log.clear()
        else:
            stall(log)
        total, dropped, retained = ring_accounting(log)
        assert log.accounting() == (total, dropped, retained)
        assert (log.total, log.dropped, len(log)) == (
            total, dropped, retained,
        )
        assert retained == len(log.events())


class EmitOnAcquire:
    """A lock that emits one event before every read of the ring: the
    concurrent emitter landing between two reads, made deterministic."""

    def __init__(self, log: EventLog) -> None:
        self.log = log
        self.lock = log._lock

    def __enter__(self):
        self.log.emit("racer")
        return self.lock.__enter__()

    def __exit__(self, *exc):
        return self.lock.__exit__(*exc)


def test_summary_is_one_consistent_read():
    log = EventLog(capacity=4)
    for _ in range(6):
        log.emit("probe")
    log.clear()
    for _ in range(6):
        log.emit("probe")
    log._lock = EmitOnAcquire(log)
    summary = log.summary()
    assert summary["recorded"] == 4
    assert (
        summary["recorded"] + summary["dropped"] + log._cleared
        == summary["total"]
    )


def test_sample_event_block_is_one_consistent_read():
    instr = Instrumentation(event_capacity=4)
    sampler = install_sampler(instr, sim_interval=None)
    for _ in range(6):
        instr.emit("probe")
    instr.events._lock = EmitOnAcquire(instr.events)
    block = sampler.sample().events
    # A full ring that was never cleared retains exactly `capacity`.
    assert block["total"] - block["dropped"] == 4


# -- the FIB ------------------------------------------------------------


def test_fib_entry_tally_matches_oracle():
    scenario = Scenario(
        config=TopologyConfig.tiny(seed=5), seed=5, atlas_size=10
    )
    internet = scenario.internet
    engine = scenario.engine(scenario.sources()[0], "revtr2.0")
    dsts = scenario.responsive_destinations(12, options_only=True)
    rng = random.Random(5)

    def entries() -> int:
        return internet.forwarding_cache_stats()["caches"]["fib"][
            "entries"
        ]

    seen_nonzero = False
    for _ in range(60):
        op = rng.choice(
            ["measure", "measure", "measure", "invalidate", "stale"]
        )
        if op == "measure":
            engine.measure(rng.choice(dsts))
        elif op == "invalidate":
            internet.invalidate_routing()
        else:
            # Age every entry without flushing: the next walks
            # overwrite keys the tally has already counted.
            internet.routing_generation += 1
        assert entries() == fib_entry_count(internet)
        seen_nonzero = seen_nonzero or entries() > 0
    assert seen_nonzero


# -- one telemetry sample -----------------------------------------------


def faulted_run(requests: int = 24):
    """A seeded scheduler run under link loss and a VP outage, full
    obs and the sampler on; the event ring is small enough to wrap."""
    instr = Instrumentation(event_capacity=64)
    sampler = install_sampler(instr, sim_interval=5.0)
    scenario = Scenario(
        config=TopologyConfig.tiny(seed=9),
        seed=9,
        atlas_size=10,
        instrumentation=instr,
    )
    registry = SourceRegistry(
        scenario.internet,
        scenario.background_prober,
        scenario.atlas_vp_addrs,
        scenario.spoofer_addrs,
        atlas_size=10,
        seed=9,
    )
    service = RevtrService(
        prober=scenario.online_prober,
        registry=registry,
        selector=scenario.selector("revtr2.0"),
        ip2as=scenario.ip2as,
        relationships=scenario.relationships,
        resolver=scenario.resolver,
        instrumentation=instr,
    )
    user = service.add_user("ops", max_per_day=10_000)
    source = scenario.sources()[0]
    service.add_source(user.api_key, source)
    scenario.install_vp_health()
    spoofers = sorted(set(scenario.spoofer_addrs) - {source})
    plan = FaultPlan(seed=9)
    plan.add(FaultSpec(kind="link-loss", rate=0.02))
    plan.add(
        FaultSpec(
            kind="vp-outage",
            start=scenario.clock.now(),
            end=scenario.clock.now() + 600.0,
            vps=tuple(spoofers[: len(spoofers) // 2]),
        )
    )
    scenario.install_faults(plan)
    scheduler = service.scheduler(SchedulerConfig(parallelism=4))
    dsts = scenario.responsive_destinations(options_only=True)
    for dst in random.Random(9).choices(dsts, k=requests):
        scheduler.submit(user.api_key, dst, source)
    while scheduler.step() is not None:
        pass
    return instr, sampler


def test_sampler_export_equals_oracle_accounting():
    instr, sampler = faulted_run()
    assert sampler.total >= 8
    assert instr.events.dropped > 0
    with oracle_accounting():
        _, oracle_sampler = faulted_run()
    assert sampler.export_json() == oracle_sampler.export_json()


def test_sample_never_copies_the_ring(monkeypatch):
    instr, sampler = faulted_run(requests=6)
    calls = []
    snapshot = EventLog._snapshot

    def counted(self):
        calls.append(1)
        return snapshot(self)

    monkeypatch.setattr(EventLog, "_snapshot", counted)
    sampler.sample()
    instr.registry.snapshot()
    assert calls == []
    instr.events.summary()
    assert len(calls) == 1  # by_kind only
