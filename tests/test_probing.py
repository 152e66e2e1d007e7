"""Tests for the prober, traceroute, budget, rate limiter, and clock."""

from collections import Counter

import pytest

from repro.net.packet import ProbeKind
from repro.probing import Prober, ProbeCounter, TokenBucket, paris_traceroute
from repro.probing.prober import LOSS_TIMEOUT, SPOOF_BATCH_TIMEOUT
from repro.sim.clock import VirtualClock


def responsive_host(internet, skip=0):
    hosts = sorted(
        h.addr
        for h in internet.hosts.values()
        if h.responds_to_options and h.stamps_rr and not h.is_vantage_point
    )
    return hosts[skip]


class TestClock:
    def test_advance(self):
        clock = VirtualClock()
        assert clock.now() == 0.0
        clock.advance(1.5)
        assert clock.now() == 1.5

    def test_negative_rejected(self):
        clock = VirtualClock()
        with pytest.raises(ValueError):
            clock.advance(-1)

    def test_advance_to(self):
        clock = VirtualClock()
        clock.advance(10.0)
        clock.advance_to(12.0)
        assert clock.now() == 12.0
        with pytest.raises(ValueError):
            clock.advance_to(5.0)


class TestTokenBucket:
    def test_burst_is_free(self):
        clock = VirtualClock()
        bucket = TokenBucket(clock, rate_per_second=10, burst=5)
        for _ in range(5):
            assert bucket.acquire() == 0.0
        assert clock.now() == 0.0

    def test_waits_when_exhausted(self):
        clock = VirtualClock()
        bucket = TokenBucket(clock, rate_per_second=10, burst=1)
        bucket.acquire()
        waited = bucket.acquire()
        assert waited == pytest.approx(0.1)
        assert clock.now() == pytest.approx(0.1)

    def test_refills_over_time(self):
        clock = VirtualClock()
        bucket = TokenBucket(clock, rate_per_second=10, burst=2)
        bucket.acquire()
        bucket.acquire()
        clock.advance(1.0)
        assert bucket.acquire() == 0.0

    def test_rejects_bad_rate(self):
        with pytest.raises(ValueError):
            TokenBucket(VirtualClock(), rate_per_second=0)

    def test_oversized_acquire_leaves_no_debt(self):
        # A run of acquires three times the burst: every wait takes
        # exactly the deficit, so no negative-token debt makes a later
        # caller over-wait.
        clock = VirtualClock()
        bucket = TokenBucket(clock, rate_per_second=10, burst=5)
        waited = sum(bucket.acquire() for _ in range(15))
        # The deficit is 15 - 5 tokens at 10/s: 1 s.
        assert waited == pytest.approx(1.0)
        # The next token costs 1/rate, not (1 + old debt)/rate.
        assert bucket.acquire() == pytest.approx(0.1)
        assert bucket.acquire() == pytest.approx(0.1)

    def test_oversized_acquire_total_wait_bounded(self):
        clock = VirtualClock()
        bucket = TokenBucket(clock, rate_per_second=4, burst=2)
        start = clock.now()
        for _ in range(18):  # 3 runs of 3 * burst
            bucket.acquire()
        # 18 tokens at 4/s with 2 free from the initial burst.
        assert clock.now() - start == pytest.approx(16 / 4)


class TestProbeCounter:
    def test_record_and_total(self):
        counter = ProbeCounter()
        counter.record(ProbeKind.RECORD_ROUTE, 3)
        counter.record(ProbeKind.TIMESTAMP)
        assert counter.total() == 4
        assert counter.counts[ProbeKind.RECORD_ROUTE] == 3

    def test_merged_snapshot_order_is_declaration_order(self):
        # Counts merged in an order unlike ProbeKind declaration order.
        merged = Counter({ProbeKind.SNMP: 1})
        merged.update({ProbeKind.TIMESTAMP: 1})
        assert list(ProbeCounter(merged).snapshot()) == [
            kind.value for kind in ProbeKind
        ]


class TestProber:
    def test_ping_advances_clock_by_rtt(self, tiny_internet):
        prober = Prober(tiny_internet)
        dst = responsive_host(tiny_internet)
        reply = prober.ping(tiny_internet.mlab_hosts[0], dst)
        assert reply is not None
        assert prober.clock.now() == pytest.approx(reply.rtt)

    def test_lost_ping_costs_timeout(self, tiny_internet):
        prober = Prober(tiny_internet)
        dead = next(
            h.addr
            for h in tiny_internet.hosts.values()
            if not h.responds_to_ping
        )
        reply = prober.ping(tiny_internet.mlab_hosts[0], dead)
        assert reply is None
        assert prober.clock.now() == pytest.approx(LOSS_TIMEOUT)

    def test_rr_ping_counts_kind(self, tiny_internet):
        prober = Prober(tiny_internet)
        dst = responsive_host(tiny_internet)
        prober.rr_ping(tiny_internet.mlab_hosts[0], dst)
        assert prober.counter.counts[ProbeKind.RECORD_ROUTE] == 1

    def test_spoofed_batch_costs_timeout(self, tiny_internet):
        prober = Prober(tiny_internet)
        spoofers = [
            a
            for a in tiny_internet.mlab_hosts
            if tiny_internet.graph.nodes[
                tiny_internet.hosts[a].asn
            ].allows_spoofing
        ]
        dst = responsive_host(tiny_internet)
        results = prober.spoofed_rr_batch(
            spoofers[:3], dst, spoof_as=spoofers[0]
        )
        assert len(results) == 3
        assert prober.clock.now() == pytest.approx(SPOOF_BATCH_TIMEOUT)
        assert prober.counter.counts[ProbeKind.SPOOFED_RECORD_ROUTE] >= 2

    def test_rr_result_distance_and_range(self, tiny_internet):
        prober = Prober(tiny_internet)
        dst = responsive_host(tiny_internet)
        result = prober.rr_ping(tiny_internet.mlab_hosts[0], dst)
        if result.responded and result.distance() is not None:
            assert 1 <= result.distance() <= 9

    def test_ts_ping_requires_two_prespec(self, tiny_internet):
        prober = Prober(tiny_internet)
        with pytest.raises(ValueError):
            prober.ts_ping(
                tiny_internet.mlab_hosts[0], "1.2.3.4", ["1.2.3.4"]
            )

    def test_snmp_probe(self, tiny_internet):
        prober = Prober(tiny_internet)
        responsive = next(
            r
            for r in tiny_internet.routers.values()
            if r.snmpv3_responsive
        )
        silent = next(
            r
            for r in tiny_internet.routers.values()
            if not r.snmpv3_responsive
        )
        assert prober.snmpv3_probe(responsive.loopback) is not None
        assert prober.snmpv3_probe(silent.loopback) is None


class TestTraceroute:
    def test_reaches_destination(self, tiny_internet):
        prober = Prober(tiny_internet)
        src = tiny_internet.mlab_hosts[0]
        dst = responsive_host(tiny_internet)
        trace = paris_traceroute(prober, src, dst)
        assert trace.reached
        assert trace.hops[-1] == dst

    def test_hops_match_ground_truth_routers(self, tiny_internet):
        prober = Prober(tiny_internet)
        src = tiny_internet.mlab_hosts[0]
        dst = responsive_host(tiny_internet)
        trace = paris_traceroute(prober, src, dst)
        truth = tiny_internet.ground_truth_router_path(src, dst)
        # Each responsive hop (except the destination) belongs to the
        # ground-truth router at that position.
        for index, hop in enumerate(trace.hops[:-1]):
            if hop is None:
                continue
            owner = tiny_internet.iface_owner.get(hop)
            assert owner == truth[index]

    def test_paris_flow_stability(self, small_internet):
        prober = Prober(small_internet)
        src = small_internet.mlab_hosts[0]
        dst = responsive_host(small_internet)
        first = paris_traceroute(prober, src, dst)
        second = paris_traceroute(prober, src, dst)
        assert first.hops == second.hops

    def test_unresponsive_destination_gives_stars(self, tiny_internet):
        prober = Prober(tiny_internet)
        dead = next(
            h.addr
            for h in tiny_internet.hosts.values()
            if not h.responds_to_ping
        )
        trace = paris_traceroute(
            prober, tiny_internet.mlab_hosts[0], dead
        )
        assert not trace.reached
        assert trace.hops and trace.hops[-1] is None
