"""Tests for alias resolution: ITDK sampling, SNMP, resolver."""

import pytest

from repro.alias import (
    AliasResolver,
    SnmpResolver,
    build_itdk_dataset,
)
from repro.probing import Prober


def multi_iface_router(internet, snmp=None):
    for router in internet.routers.values():
        if len(router.addresses()) < 3:
            continue
        if snmp is not None and router.snmpv3_responsive != snmp:
            continue
        if not router.responds_to_ping:
            continue
        return router
    pytest.skip("no suitable router in this topology seed")


class TestITDK:
    def test_groups_are_real_routers(self, tiny_internet):
        dataset = build_itdk_dataset(tiny_internet, coverage=1.0)
        by_group = {}
        for addr, group in dataset.items():
            by_group.setdefault(group, []).append(addr)
        for addrs in by_group.values():
            owners = {tiny_internet.iface_owner[a] for a in addrs}
            assert len(owners) == 1  # no false aliases: ground truth

    def test_coverage_fraction(self, tiny_internet):
        full = build_itdk_dataset(tiny_internet, coverage=1.0)
        half = build_itdk_dataset(tiny_internet, coverage=0.5)
        none = build_itdk_dataset(tiny_internet, coverage=0.0)
        assert len(none) == 0
        assert 0 < len(half) < len(full)

    def test_deterministic(self, tiny_internet):
        a = build_itdk_dataset(tiny_internet, coverage=0.5, seed=3)
        b = build_itdk_dataset(tiny_internet, coverage=0.5, seed=3)
        assert a == b


class TestSnmp:
    def test_groups_by_engine_id(self, tiny_internet):
        router = multi_iface_router(tiny_internet, snmp=True)
        prober = Prober(tiny_internet)
        snmp = SnmpResolver(prober)
        addrs = router.addresses()
        assert snmp.same_router(addrs[0], addrs[1]) is True
        groups = snmp.resolve(addrs)
        assert {frozenset(g) for g in groups} == {frozenset(addrs)}

    def test_unresponsive_is_unknown(self, tiny_internet):
        router = multi_iface_router(tiny_internet, snmp=False)
        prober = Prober(tiny_internet)
        snmp = SnmpResolver(prober)
        addrs = router.addresses()
        assert snmp.same_router(addrs[0], addrs[1]) is None


class TestResolver:
    def test_exact_match(self):
        resolver = AliasResolver()
        assert resolver.same_router("1.1.1.1", "1.1.1.1")

    def test_itdk_groups(self):
        resolver = AliasResolver(itdk={"1.1.1.1": 5, "2.2.2.2": 5, "3.3.3.3": 6})
        assert resolver.same_router("1.1.1.1", "2.2.2.2")
        assert not resolver.same_router("1.1.1.1", "3.3.3.3")

    def test_slash30_alignment(self):
        resolver = AliasResolver()
        assert resolver.aligned("1.0.0.1", "1.0.0.2")
        assert not resolver.aligned("1.0.0.1", "1.0.0.5")

    def test_slash30_requires_usable_pair(self):
        resolver = AliasResolver()
        # .4 is a network address of its /30 — not a link peer of .5.
        assert not resolver.aligned("1.0.0.4", "1.0.0.6")

    def test_can_resolve(self):
        resolver = AliasResolver(itdk={"1.1.1.1": 5})
        assert resolver.can_resolve("1.1.1.1")
        assert not resolver.can_resolve("9.9.9.9")
        resolver.add_group({"9.9.9.9", "9.9.9.10"})
        assert resolver.can_resolve("9.9.9.9")
        assert resolver.same_router("9.9.9.9", "9.9.9.10")

    def test_regrouped_addresses_do_not_merge_the_next_group(self):
        """Group ids once came from the number of addresses known, so a
        group that added none handed its id to the next one."""
        resolver = AliasResolver()
        resolver.add_group({"5.5.5.5", "6.6.6.6"})
        resolver.add_group({"9.9.9.9", "9.9.9.10"})
        resolver.add_group({"9.9.9.10", "9.9.9.9"})  # nothing new
        resolver.add_group({"9.9.9.9", "8.8.8.8"})  # one new, one moved
        assert resolver.same_router("9.9.9.9", "8.8.8.8")
        assert not resolver.same_router("9.9.9.10", "8.8.8.8")
        assert not resolver.same_router("5.5.5.5", "8.8.8.8")
        assert resolver.align_keys("9.9.9.10").isdisjoint(
            resolver.align_keys("8.8.8.8")
        )

    def test_matches_any(self):
        resolver = AliasResolver()
        assert resolver.matches_any("1.0.0.1", ["7.7.7.7", "1.0.0.2"])
        assert not resolver.matches_any("1.0.0.1", ["7.7.7.7"])
