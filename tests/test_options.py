"""Tests for record-route and timestamp option semantics."""

import pytest
from hypothesis import given, strategies as st

from repro.net.options import (
    RECORD_ROUTE_SLOTS,
    TIMESTAMP_SLOTS,
    RecordRouteOption,
    TimestampOption,
)


class TestRecordRoute:
    def test_nine_slots(self):
        option = RecordRouteOption()
        for i in range(RECORD_ROUTE_SLOTS):
            assert option.stamp(f"10.0.0.{i}")
        assert option.is_full()
        assert not option.stamp("10.0.0.99")
        assert len(option.slots) == RECORD_ROUTE_SLOTS

    def test_remaining(self):
        option = RecordRouteOption(["1.1.1.1"])
        stamped = 0
        while option.stamp(f"10.0.0.{stamped}"):
            stamped += 1
        assert stamped == RECORD_ROUTE_SLOTS - 1

    def test_loop_detection(self):
        option = RecordRouteOption(["x", "a", "b", "x"])
        assert option.loop_address() == "x"
        assert option.loop_interior() == ["a", "b"]

    def test_adjacent_repeat_is_not_a_loop(self):
        # a-a is a double stamp, not an a-S-a loop.
        option = RecordRouteOption(["a", "a", "b"])
        assert option.loop_address() is None

    def test_no_loop(self):
        option = RecordRouteOption(["a", "b", "c"])
        assert option.loop_address() is None
        assert option.loop_interior() == []


class TestTimestamp:
    def test_prespec_limit(self):
        with pytest.raises(ValueError):
            TimestampOption.prespec(["a", "b", "c", "d", "e"])

    def test_ordered_stamping(self):
        option = TimestampOption.prespec(["r3", "r4"])
        # r4 cannot stamp before r3.
        assert not option.stamp_if_match(["r4"], now=1)
        assert option.stamp_if_match(["r3", "other"], now=2)
        assert option.next_pending() == "r4"
        assert option.stamp_if_match(["r4"], now=3)
        assert option.stamped == [2, 3]

    def test_non_matching_router_does_not_stamp(self):
        option = TimestampOption.prespec(["a", "b"])
        assert not option.stamp_if_match(["x", "y"], now=1)
        assert option.stamped == [None, None]

    def test_stamp_after_complete(self):
        option = TimestampOption.prespec(["a"])
        assert option.stamp_if_match(["a"], now=1)
        assert not option.stamp_if_match(["a"], now=2)

    @given(st.lists(st.sampled_from("abcd"), min_size=1, max_size=4, unique=True))
    def test_stamps_follow_prespec_order(self, names):
        option = TimestampOption.prespec(list(names))
        # Present routers one at a time in prespec order: all stamp.
        for name in names:
            assert option.stamp_if_match([name], now=1)
        assert option.next_pending() is None
