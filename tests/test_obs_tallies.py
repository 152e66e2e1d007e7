"""A pull source reads tallies; it never iterates state whose size
grows with the workload.

The event ring's accounting and the FIB's entry count are tallies
read in O(1); these tests hold them to the walk-everything oracles
in ``tests/helpers/reference_obs.py`` and pin the cost shape of one
telemetry sample.
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

RING_OPS = st.lists(st.sampled_from(["emit", "emit_t"]), max_size=40)


@settings(max_examples=300, deadline=None)
@given(capacity=st.integers(min_value=1, max_value=8), ops=RING_OPS)
def test_ring_accounting_matches_oracle(capacity, ops):
    log = EventLog(capacity=capacity)
    for op in ops:
        if op == "emit":
            log.emit("probe", n=1)
        else:
            log.emit_t("splice.negative", ("10.0.0.1",))
        total, dropped, retained = ring_accounting(log)
        assert log.accounting() == (total, dropped, retained)
        assert (log.total, log.dropped, len(log)) == (
            total, dropped, retained,
        )
        assert retained == len(log.events())


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
            ["measure", "measure", "measure", "invalidate", "withdraw"]
        )
        if op == "measure":
            engine.measure(rng.choice(dsts))
        elif op == "invalidate":
            internet.invalidate_routing()
        else:
            # Withdrawing a prefix drops every resolved target with its
            # row, so the tally restarts from zero.
            internet.withdraw(internet.prefix_table.lookup_prefix(dsts[0]))
        assert entries() == fib_entry_count(internet)
        seen_nonzero = seen_nonzero or entries() > 0
    assert seen_nonzero


# -- one telemetry sample -----------------------------------------------


def faulted_run(requests: int = 48):
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
    # Every request is queued (none bounced as queue-full), so the
    # virtual timeline is long enough to sample even though spliced
    # repeats cost the service little time.
    scheduler = service.scheduler(
        SchedulerConfig(parallelism=4, max_queue_per_user=requests)
    )
    dsts = scenario.responsive_destinations(options_only=True)
    for dst in random.Random(9).choices(dsts, k=requests):
        scheduler.submit(user.api_key, dst, source)
    while scheduler.step() is not None:
        pass
    return instr, sampler


def test_sampler_export_equals_oracle_accounting():
    # The default run is long enough in virtual time for the sampler
    # to tick 8 times whatever the loss draws decide.
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
    instr.events.events()
    assert len(calls) == 1  # a reader that does copy is counted
