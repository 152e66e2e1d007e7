"""TTL sweeps against one probe per TTL.

``Internet.send_ttl_sweep`` walks a traceroute's forward path once and
reads every TTL's reply off it.  The definition of a TTL-limited packet
is the oracle's ``send_ttl_probe(internet, probe, k)``, the walk with a
per-hop TTL check that ``src/`` had before its one reply builder
(``tests/helpers/reference_traceroute.py``, which also holds the
previous ``paris_traceroute``), so everything here runs the same
workload on twin Internets — the sweep on one, a probe per TTL on the
other — and requires equal results *and* equal state:
virtual clock, token buckets, probe counters, the simulator's outcome
/ hop / drop tallies, IP-ID counters and, under faults, the injector's
draw count and random stream, injection tallies and rate-limit
grants.
"""

from contextlib import nullcontext
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

import repro.core.atlas as atlas_module
from repro.experiments import Scenario
from repro.net.options import RecordRouteOption
from repro.net.packet import Probe, TracerouteReply
from repro.probing import Prober, paris_traceroute
from repro.probing.prober import LOSS_TIMEOUT
from repro.probing.ratelimit import TokenBucket
from repro.probing.traceroute import _PACING, MAX_STARS, MAX_TTL
from repro.service.sources import build_atlas
from repro.sim.clock import VirtualClock
from repro.sim.faults import FaultInjector, FaultPlan, FaultSpec
from repro.topology import TopologyConfig
from repro.topology.generator import build_internet
from repro.topology.policy import AnnouncementSpec, Origin
from tests.helpers.reference_traceroute import (
    reference_paris_traceroute,
    send_ttl_probe,
)
from tests.helpers.reference_walk import uncached_forwarding

CONFIGS = {
    "tiny": TopologyConfig.tiny(seed=11),
    "small": TopologyConfig.small(seed=5),
}

#: Inside no prefix / owned by no interface: cannot be routed.
UNROUTABLE = ("203.0.113.7", "10.0.0.1")
#: Not a host: cannot be injected.
NOT_A_HOST = "198.51.100.9"


def twins(name):
    """Two independently built, identical Internets (~20 ms each)."""
    return build_internet(CONFIGS[name]), build_internet(CONFIGS[name])


@lru_cache(maxsize=None)
def endpoints(name):
    """(sources, {destination class: addresses}) of topology *name*;
    the last source cannot inject, the others are hosts."""
    internet = build_internet(CONFIGS[name])
    hosts = sorted(internet.hosts.values(), key=lambda h: h.addr)
    ifaces = sorted(internet.iface_owner)
    sources = (
        internet.mlab_hosts[:4]
        + internet.atlas_hosts[:4]
        + [NOT_A_HOST]
    )
    return sources, {
        "host": [h.addr for h in hosts if h.responds_to_ping],
        # four stars after the path ends
        "silent-host": [h.addr for h in hosts if not h.responds_to_ping],
        # `reached` in the time-exceeded reply of the owner
        "interface": [
            a for a in ifaces
            if internet.iface_anchor[a] == internet.iface_owner[a]
        ],
        # interdomain /30 numbered from the far side
        "far-interface": [
            a for a in ifaces
            if internet.iface_anchor[a] != internet.iface_owner[a]
        ],
        "unroutable": list(UNROUTABLE),
    }


@st.composite
def traceroutes(draw, name, max_count=4):
    """[(src, dst, max_ttl, flow_id)] over every destination class."""
    sources, by_class = endpoints(name)
    jobs = []
    for _ in range(draw(st.integers(1, max_count))):
        pool = by_class[draw(st.sampled_from(sorted(by_class)))]
        jobs.append(
            (
                draw(st.sampled_from(sources)),
                draw(st.sampled_from(pool)),
                # mostly the default horizon; short ones end the
                # sweep before the path does
                draw(st.sampled_from((32, 32, 32, 6, 1))),
                draw(st.integers(0, 3)),
            )
        )
    return jobs


@st.composite
def fault_plans(draw, name):
    """Loss, ICMP policing and a VP outage, each in a window that can
    open or close while a traceroute is in flight (one takes ~1–3
    virtual seconds)."""
    sources, _ = endpoints(name)

    def window():
        if draw(st.booleans()):
            return {}
        start = draw(st.floats(0.0, 6.0))
        return {"start": start, "end": start + draw(st.floats(0.2, 6.0))}

    specs = []
    loss = draw(st.sampled_from((0.0, 0.08, 0.3, 1.0)))
    if loss:
        specs.append(FaultSpec(kind="link-loss", rate=loss, **window()))
    if draw(st.booleans()):
        specs.append(
            FaultSpec(
                kind="router-rate-limit",
                limit=draw(st.integers(0, 3)),
                window=5.0,
                **window(),
            )
        )
    if draw(st.booleans()):
        specs.append(FaultSpec(kind="router-filter", **window()))
    if draw(st.booleans()):
        specs.append(
            FaultSpec(kind="vp-outage", vps=tuple(sources), **window())
        )
    return FaultPlan(specs, seed=draw(st.integers(0, 1 << 16)))


def sim_state(internet):
    return {
        "outcomes": internet.probe_outcome_counts,
        "hops": internet._obs_hops,
        "drops": dict(internet._obs_drops),
        "ipid": dict(internet._ipid_counters),
        "router_ipid": {
            rid: router._ipid for rid, router in internet.routers.items()
        },
    }


def injector_state(injector):
    return {
        "draws": injector._draws,
        "stream": injector._rng.getstate(),
        "injections": injector.injections,
        "counts": dict(injector.counts),
        "granted": dict(injector._granted),
        "pending_reason": injector._last_reason,
    }


def campaign(internet, traceroute, jobs, plan=None, vp_rate_pps=100.0):
    """Run *jobs* through *traceroute* on one prober; return the
    results and every piece of state the run could have touched."""
    prober = Prober(internet, vp_rate_pps=vp_rate_pps)
    if plan is not None:
        internet.faults = FaultInjector(plan, prober.clock)
    # A traceroute runs at flow 0 up to MAX_TTL: a job's drawn horizon
    # and flow reach only the sweep itself, in (b).
    results = [traceroute(prober, src, dst) for src, dst, _, _ in jobs]
    state = {
        "clock": prober.clock.now(),
        "buckets": {
            vp: (bucket._tokens, bucket._last)
            for vp, bucket in prober._buckets.items()
        },
        "probes": dict(prober.counter.counts),
        "sim": sim_state(internet),
    }
    if plan is not None:
        state["faults"] = injector_state(internet.faults)
    return results, state


def fixed_jobs(name, count):
    """*count* traceroutes cycling through the injectable sources and
    every destination class."""
    sources, by_class = endpoints(name)
    pools = list(by_class.values())
    jobs = []
    for i in range(count):
        pool = pools[i % len(pools)]
        jobs.append((sources[i % 8], pool[(7 * i) % len(pool)], 32, 0))
    return jobs


def assert_same_campaign(
    name, jobs, plan=None, vp_rate_pps=100.0, forwarding=nullcontext
):
    swept, walked = twins(name)
    with forwarding():
        results, state = campaign(
            swept, paris_traceroute, jobs, plan, vp_rate_pps
        )
    expected_results, expected_state = campaign(
        walked, reference_paris_traceroute, jobs, plan, vp_rate_pps
    )
    assert results == expected_results
    assert state == expected_state


# ----------------------------------------------------------------------
# (a) whole traceroutes, fault-free
# ----------------------------------------------------------------------


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_traceroute_equals_one_probe_per_ttl(data):
    name = data.draw(st.sampled_from(sorted(CONFIGS)), label="topology")
    jobs = data.draw(traceroutes(name), label="traceroutes")
    # 3 pps (burst 3) makes the token bucket wait on the clock
    rate = data.draw(st.sampled_from((100.0, 3.0)), label="vp_rate_pps")
    assert_same_campaign(name, jobs, vp_rate_pps=rate)


# ----------------------------------------------------------------------
# (b) item by item: the k-th reply is send_ttl_probe(..., k)'s
# ----------------------------------------------------------------------


def as_reply(outcome, dst):
    """What a sweep step yields for *outcome*: its time-exceeded reply,
    a ``reached`` reply from *dst* for an echo, ``None`` for a loss."""
    if outcome.te_reply is not None:
        return outcome.te_reply
    if outcome.delivered:
        return TracerouteReply(dst, outcome.echo.rtt, reached=True)
    return None


def assert_same_items(
    name, src, dst, max_ttl, flow_id, max_stars=MAX_STARS, plan=None
):
    swept, walked = twins(name)
    clocks = VirtualClock(), VirtualClock()
    if plan is not None:
        swept.faults = FaultInjector(plan, clocks[0])
        walked.faults = FaultInjector(plan, clocks[1])
    probe = Probe(src=src, dst=dst, flow_id=flow_id)
    replies, steps = swept.send_ttl_sweep(probe, max_ttl, max_stars)
    # The fault-free prefix is sent as one: its k-th reply is
    # send_ttl_probe(..., k)'s, and the state it leaves is theirs.
    if plan is not None:
        assert replies == []
    for ttl, reply in enumerate(replies, 1):
        expected = send_ttl_probe(walked, probe, ttl)
        assert reply == expected.te_reply, ttl
    assert sim_state(swept) == sim_state(walked)
    # ... and it runs to the traceroute's stop point, not short of it
    tail = [reply.hop_addr for reply in replies[-max_stars:]]
    stopped = replies and (replies[-1].reached or tail == [None] * max_stars)
    for ttl in range(len(replies) + 1, max_ttl + 1):
        reply = next(steps)
        expected = send_ttl_probe(walked, probe, ttl)
        if plan is None and ttl == len(replies) + 1 and not stopped:
            assert expected.te_reply is None, ttl
        # hop address, rtt and `reached`; the router paths are what the
        # hop tally in sim_state adds up
        assert reply == as_reply(expected, dst), ttl
        assert sim_state(swept) == sim_state(walked), ttl
        if plan is not None:
            assert injector_state(swept.faults) == injector_state(
                walked.faults
            ), ttl
        # time passes between TTLs, so fault windows open and close
        for clock in clocks:
            clock.advance(0.05 + 0.01 * ttl)
    assert next(steps, "end") == "end"


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_each_item_equals_the_single_probe(data):
    name = data.draw(st.sampled_from(sorted(CONFIGS)), label="topology")
    (job,) = data.draw(traceroutes(name, max_count=1), label="traceroute")
    # one star ends the prefix at the first silent hop
    max_stars = data.draw(st.sampled_from((MAX_STARS, 1)), label="stars")
    plan = data.draw(
        st.one_of(st.none(), fault_plans(name)), label="plan"
    )
    assert_same_items(name, *job, max_stars=max_stars, plan=plan)


def test_sweep_rejects_option_probes(tiny_internet):
    src = tiny_internet.mlab_hosts[0]
    probe = Probe(
        src=src,
        dst=tiny_internet.mlab_hosts[1],
        record_route=RecordRouteOption(),
    )
    with pytest.raises(ValueError, match="option-less"):
        tiny_internet.send_ttl_sweep(probe, 4, MAX_STARS)


# ----------------------------------------------------------------------
# (c) whole traceroutes under a seeded fault plan
# ----------------------------------------------------------------------


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_traceroute_under_faults_equals_one_probe_per_ttl(data):
    name = data.draw(st.sampled_from(sorted(CONFIGS)), label="topology")
    jobs = data.draw(traceroutes(name, max_count=6), label="traceroutes")
    plan = data.draw(fault_plans(name), label="plan")
    assert_same_campaign(name, jobs, plan)


def test_mixed_fault_campaign_equals_one_probe_per_ttl():
    """A fixed campaign over every destination class under loss, a
    router rate limit and a VP outage that opens and closes mid-run:
    needs no lucky draw to notice a skipped loss draw, a policing call
    at the destination hop, a mis-tallied hop count, an ingress
    address off the wrong link or an early ``reached``."""
    sources, _ = endpoints("tiny")
    plan = FaultPlan(
        [
            FaultSpec(kind="link-loss", rate=0.08),
            FaultSpec(kind="router-rate-limit", limit=2, window=5.0),
            FaultSpec(
                kind="vp-outage",
                start=20.0,
                end=60.0,
                vps=tuple(sources[:3]),
            ),
        ],
        seed=5,
    )
    assert_same_campaign("tiny", fixed_jobs("tiny", 200), plan)


# ----------------------------------------------------------------------
# (d) no FIB memo; rerouting between two traceroutes of one pair
# ----------------------------------------------------------------------


def test_sweep_with_fastpath_disabled():
    """The sweep's walk is ``_walk``: recomputing every decision
    (``tests/helpers/reference_walk.py``) it still equals a probe per
    TTL on a memoised Internet."""
    assert_same_campaign(
        "small", fixed_jobs("small", 60), forwarding=uncached_forwarding
    )


def rerouted_pair(internet):
    """(src, host, provider ASN on the path): a no-export override of
    that provider moves the path."""
    src = internet.mlab_hosts[0]
    for host in sorted(internet.hosts.values(), key=lambda h: h.addr):
        providers = internet.graph.nodes[host.asn].providers()
        if not host.responds_to_ping or len(providers) < 2:
            continue
        for rid in internet.ground_truth_router_path(src, host.addr):
            if internet.routers[rid].asn in providers:
                return src, host, internet.routers[rid].asn
    pytest.skip("no overridable destination in this topology")


def test_sweep_follows_a_reroute_between_two_traceroutes():
    swept, walked = twins("small")
    src, host, provider = rerouted_pair(swept)
    prefix = swept.prefix_table.lookup_prefix(host.addr)
    override = AnnouncementSpec(
        origins=(Origin(host.asn),),
        no_export=frozenset({(host.asn, provider)}),
    )
    probers = Prober(swept), Prober(walked)
    before = paris_traceroute(probers[0], src, host.addr)
    assert before == reference_paris_traceroute(
        probers[1], src, host.addr
    )
    for internet in (swept, walked):
        internet.announce(
            prefix,
            override,
            {host.asn: internet.prefixes[prefix].edge_router_id},
        )
    after = paris_traceroute(probers[0], src, host.addr)
    assert after == reference_paris_traceroute(
        probers[1], src, host.addr
    )
    assert after.hops != before.hops
    assert probers[0].clock.now() == probers[1].clock.now()
    assert sim_state(swept) == sim_state(walked)


# ----------------------------------------------------------------------
# (e) the fault-free prefix is paced in one token-bucket pass
# ----------------------------------------------------------------------

#: What a TTL holds the clock for: an in-path reply's RTT on either
#: topology, or a lost probe's timeout.
COSTS = sorted(
    {
        2 * ttl * (config.link_latency_ms / 1000.0)
        for config in CONFIGS.values()
        for ttl in range(1, MAX_TTL + 1)
    }
) + [LOSS_TIMEOUT]


@settings(max_examples=300, deadline=None)
@given(
    rate=st.sampled_from((3.0, 100.0)),
    start=st.floats(0.0, 100.0),
    prior=st.lists(st.sampled_from(COSTS), max_size=5),
    costs=st.lists(st.sampled_from(COSTS), min_size=1, max_size=MAX_TTL),
)
def test_bulk_pacing_equals_per_step_pacing(rate, start, prior, costs):
    """``TokenBucket.pace`` is ``acquire(); advance(pacing);
    advance(cost)`` per cost, bit for bit: tokens, refill time, clock."""

    def bucket():
        clock = VirtualClock()
        clock.advance(start)
        # burst = rate, as Prober._bucket builds it
        made = TokenBucket(clock, rate, burst=rate)
        for gap in prior:
            made.acquire()
            clock.advance(gap)
        return made

    bulk, stepped = bucket(), bucket()
    bulk.pace(costs, _PACING)
    for cost in costs:
        stepped.acquire()
        stepped.clock.advance(_PACING)
        stepped.clock.advance(cost)
    assert bulk._tokens == stepped._tokens
    assert bulk._last == stepped._last
    assert bulk.clock.now() == stepped.clock.now()


def test_fault_free_campaign_waits_mid_traceroute():
    """At 3 pps (burst 3) the bucket runs dry inside nearly every
    traceroute, so bulk pacing's waits, refills and float order are
    held to a probe per TTL without a lucky draw."""
    assert_same_campaign("small", fixed_jobs("small", 60), vp_rate_pps=3.0)


# ----------------------------------------------------------------------
# (f) a consumer: an atlas built and refreshed twice
# ----------------------------------------------------------------------


def atlas_lifecycle():
    """Build a source's atlas, then refresh it twice, keeping every
    other VP each time (so both the re-measure and the replacement
    loop run); return what that could have touched."""
    scenario = Scenario(
        config=TopologyConfig.small(seed=5), seed=5, atlas_size=30
    )
    prober = scenario.background_prober
    atlas, rng = build_atlas(
        prober,
        scenario.sources()[0],
        scenario.atlas_vp_addrs,
        scenario.atlas_size,
        scenario.seed,
    )
    for _ in range(2):
        for vp in sorted(atlas.traceroutes)[::2]:
            atlas.mark_useful(vp)
        atlas.refresh(prober, scenario.atlas_vp_addrs, rng)
    return {
        "traceroutes": {
            vp: (tuple(trace.hops), trace.reached, trace.timestamp)
            for vp, trace in atlas.traceroutes.items()
        },
        "clock": scenario.clock.now(),
        "probes": dict(scenario.background_counter.counts),
        "buckets": {
            vp: (bucket._tokens, bucket._last)
            for vp, bucket in prober._buckets.items()
        },
        "sim": sim_state(scenario.internet),
    }


def test_atlas_lifecycle_equals_one_probe_per_ttl(monkeypatch):
    swept = atlas_lifecycle()
    monkeypatch.setattr(
        atlas_module, "paris_traceroute", reference_paris_traceroute
    )
    walked = atlas_lifecycle()
    assert swept == walked
    assert len(swept["traceroutes"]) > 20


# ----------------------------------------------------------------------
# ground truth is the same fault-free walk, and nothing else
# ----------------------------------------------------------------------


def test_ground_truth_path_ignores_faults_and_touches_nothing():
    faulted, clean = twins("tiny")
    sources, by_class = endpoints("tiny")
    pairs = [
        (sources[i % 8], pool[i % len(pool)])
        for i in range(20)
        for pool in (by_class["host"], by_class["interface"])
    ]
    expected = [clean.ground_truth_router_path(s, d) for s, d in pairs]
    assert sum(len(path) > 1 for path in expected) > len(pairs) // 2

    injector = faulted.faults = FaultInjector(
        FaultPlan([FaultSpec(kind="link-loss", rate=1.0)], seed=3),
        VirtualClock(),
    )
    sim_before = sim_state(faulted)
    faults_before = injector_state(injector)
    assert [
        faulted.ground_truth_router_path(s, d) for s, d in pairs
    ] == expected
    assert sim_state(faulted) == sim_before
    assert injector_state(injector) == faults_before
    # and the plan does bite: a real probe dies on the first link
    (src, dst), path = next(
        (pair, path) for pair, path in zip(pairs, expected) if len(path) > 1
    )
    outcome = faulted.send_probe(Probe(src=src, dst=dst))
    assert outcome.drop_reason == "fault:link-loss"
    assert outcome.forward_router_path == path[:1]
