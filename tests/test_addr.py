"""Unit and property tests for IPv4 address/prefix utilities."""

import pytest
from hypothesis import given, strategies as st

from repro.net.addr import (
    Prefix,
    PrefixTable,
    addr_to_int,
    int_to_addr,
    is_private,
    same_slash30,
    same_slash31,
    slash30_peer,
)


class TestAddressConversion:
    def test_round_trip_known(self):
        assert addr_to_int("1.2.3.4") == 0x01020304
        assert int_to_addr(0x01020304) == "1.2.3.4"

    def test_extremes(self):
        assert addr_to_int("0.0.0.0") == 0
        assert addr_to_int("255.255.255.255") == (1 << 32) - 1
        assert int_to_addr(0) == "0.0.0.0"

    @pytest.mark.parametrize(
        "bad", ["1.2.3", "1.2.3.4.5", "256.0.0.1", "a.b.c.d", "-1.0.0.0"]
    )
    def test_malformed_rejected(self, bad):
        with pytest.raises(ValueError):
            addr_to_int(bad)

    def test_int_out_of_range(self):
        with pytest.raises(ValueError):
            int_to_addr(1 << 32)
        with pytest.raises(ValueError):
            int_to_addr(-1)

    @given(st.integers(min_value=0, max_value=(1 << 32) - 1))
    def test_round_trip_property(self, value):
        assert addr_to_int(int_to_addr(value)) == value


class TestPrivate:
    def test_rfc1918(self):
        assert is_private("10.0.0.1")
        assert is_private("172.16.0.1")
        assert is_private("172.31.255.255")
        assert is_private("192.168.1.1")

    def test_public(self):
        assert not is_private("8.8.8.8")
        assert not is_private("172.32.0.1")
        assert not is_private("11.0.0.1")
        assert not is_private("192.169.0.1")


def cidr(text):
    """``a.b.c.d/len`` as a `Prefix`."""
    addr, _, length = text.partition("/")
    return Prefix(addr_to_int(addr), int(length))


class TestPrefix:
    def test_parse_and_str(self):
        prefix = cidr("10.1.2.0/24")
        assert str(prefix) == "10.1.2.0/24"
        assert prefix.length == 24

    def test_host_bits_rejected(self):
        with pytest.raises(ValueError):
            cidr("10.0.0.1/24")

    def test_of_masks_host_bits(self):
        # The prefix of an address: its network bits under the mask.
        network = addr_to_int("10.1.2.99") & Prefix(0, 24).mask()
        assert str(Prefix(network, 24)) == "10.1.2.0/24"

    def test_contains(self):
        prefix = cidr("10.1.2.0/24")
        assert prefix.contains("10.1.2.0")
        assert prefix.contains("10.1.2.255")
        assert not prefix.contains("10.1.3.0")

    def test_nth(self):
        prefix = cidr("10.1.2.0/30")
        assert prefix.nth(1) == "10.1.2.1"
        with pytest.raises(IndexError):
            prefix.nth(4)

    def test_num_addresses(self):
        assert cidr("0.0.0.0/0").num_addresses == 1 << 32
        assert cidr("10.0.0.0/30").num_addresses == 4

    def test_addresses_enumeration(self):
        addrs = list(cidr("10.0.0.0/30").addresses())
        assert addrs == ["10.0.0.0", "10.0.0.1", "10.0.0.2", "10.0.0.3"]

    @given(
        st.integers(min_value=0, max_value=(1 << 32) - 1),
        st.integers(min_value=0, max_value=32),
    )
    def test_of_always_contains_property(self, value, length):
        mask = Prefix(0, length).mask()
        assert Prefix(value & mask, length).contains(int_to_addr(value))


class TestSlash30:
    def test_same_slash30(self):
        assert same_slash30("10.0.0.1", "10.0.0.2")
        assert not same_slash30("10.0.0.3", "10.0.0.4")

    def test_same_slash31(self):
        assert same_slash31("10.0.0.0", "10.0.0.1")
        assert not same_slash31("10.0.0.1", "10.0.0.2")

    def test_peer_of_usable_hosts(self):
        assert slash30_peer("10.0.0.1") == "10.0.0.2"
        assert slash30_peer("10.0.0.2") == "10.0.0.1"

    def test_no_peer_for_network_broadcast(self):
        assert slash30_peer("10.0.0.0") is None
        assert slash30_peer("10.0.0.3") is None

    @given(st.integers(min_value=0, max_value=(1 << 32) - 1))
    def test_peer_is_involution(self, value):
        addr = int_to_addr(value)
        peer = slash30_peer(addr)
        if peer is not None:
            assert slash30_peer(peer) == addr
            assert same_slash30(addr, peer)


class TestPrefixTable:
    def test_longest_match_wins(self):
        table = PrefixTable()
        table.insert(cidr("10.0.0.0/8"), "eight")
        table.insert(cidr("10.1.0.0/16"), "sixteen")
        assert table.lookup("10.1.2.3") == "sixteen"
        assert table.lookup("10.2.2.3") == "eight"
        assert table.lookup("11.0.0.1") is None

    def test_lookup_prefix(self):
        table = PrefixTable()
        table.insert(cidr("10.1.0.0/16"), 1)
        assert table.lookup_prefix("10.1.9.9") == cidr("10.1.0.0/16")
        assert table.lookup_prefix("10.2.0.0") is None

    def test_replace(self):
        table = PrefixTable()
        prefix = cidr("10.0.0.0/24")
        table.insert(prefix, 1)
        table.insert(prefix, 2)
        assert table.lookup("10.0.0.5") == 2
        assert len(table) == 1

    def test_falsy_values_are_returned(self):
        table = PrefixTable()
        table.insert(cidr("10.0.0.0/24"), 0)
        assert table.lookup("10.0.0.1") == 0
