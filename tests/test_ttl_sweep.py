"""TTL sweeps against one probe per TTL.

``Internet.send_ttl_sweep`` walks a traceroute's forward path once and
reads every TTL's reply off it.  ``send_probe(Probe(ttl=k))`` remains
the definition of a TTL-limited packet, so everything here runs the
same workload on twin Internets — the sweep on one, a probe per TTL on
the other (``tests/helpers/reference_traceroute.py`` is the previous
``paris_traceroute``) — and requires equal results *and* equal state:
virtual clock, token buckets, probe counters, the simulator's outcome
/ hop / drop tallies, IP-ID counters and, under faults, the injector's
draw counter, injection tallies and rate-limit grants.
"""

from contextlib import nullcontext
from dataclasses import replace
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from repro.net.options import RecordRouteOption
from repro.net.packet import Probe
from repro.probing import Prober, paris_traceroute
from repro.sim.clock import VirtualClock
from repro.sim.faults import FaultInjector, FaultPlan, FaultSpec
from repro.topology import TopologyConfig
from repro.topology.generator import build_internet
from repro.topology.policy import AnnouncementSpec, Origin
from tests.helpers.reference_traceroute import reference_paris_traceroute
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
    results = [
        traceroute(prober, src, dst, max_ttl=max_ttl, flow_id=flow_id)
        for src, dst, max_ttl, flow_id in jobs
    ]
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
    """*count* traceroutes cycling through the injectable sources,
    every destination class and flow ids 0–3."""
    sources, by_class = endpoints(name)
    pools = list(by_class.values())
    jobs = []
    for i in range(count):
        pool = pools[i % len(pools)]
        jobs.append((sources[i % 8], pool[(7 * i) % len(pool)], 32, i % 4))
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
# (b) item by item: the k-th outcome is send_probe(Probe(ttl=k))'s
# ----------------------------------------------------------------------


def assert_same_items(name, src, dst, max_ttl, flow_id, plan=None):
    swept, walked = twins(name)
    clocks = VirtualClock(), VirtualClock()
    if plan is not None:
        swept.faults = FaultInjector(plan, clocks[0])
        walked.faults = FaultInjector(plan, clocks[1])
    probe = Probe(src=src, dst=dst, flow_id=flow_id)
    sweep = swept.send_ttl_sweep(probe, max_ttl)
    for ttl in range(1, max_ttl + 1):
        outcome = next(sweep)
        expected = walked.send_probe(replace(probe, ttl=ttl))
        # ProbeOutcome is a dataclass: te_reply, echo (rtt and IP-ID
        # included), both router paths, delivered, drop_reason
        assert outcome == expected, ttl
        assert sim_state(swept) == sim_state(walked), ttl
        if plan is not None:
            assert injector_state(swept.faults) == injector_state(
                walked.faults
            ), ttl
        # time passes between TTLs, so fault windows open and close
        for clock in clocks:
            clock.advance(0.05 + 0.01 * ttl)
    assert next(sweep, None) is None


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_each_item_equals_the_single_probe(data):
    name = data.draw(st.sampled_from(sorted(CONFIGS)), label="topology")
    (job,) = data.draw(traceroutes(name, max_count=1), label="traceroute")
    plan = data.draw(
        st.one_of(st.none(), fault_plans(name)), label="plan"
    )
    assert_same_items(name, *job, plan=plan)


def test_sweep_rejects_option_probes(tiny_internet):
    src = tiny_internet.mlab_hosts[0]
    probe = Probe(
        src=src,
        dst=tiny_internet.mlab_hosts[1],
        record_route=RecordRouteOption(),
    )
    with pytest.raises(ValueError, match="option-less"):
        next(tiny_internet.send_ttl_sweep(probe, 4))


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
        internet.announcements[prefix] = override
        internet.invalidate_routing()
    after = paris_traceroute(probers[0], src, host.addr)
    assert after == reference_paris_traceroute(
        probers[1], src, host.addr
    )
    assert after.hops != before.hops
    assert probers[0].clock.now() == probers[1].clock.now()
    assert sim_state(swept) == sim_state(walked)


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
