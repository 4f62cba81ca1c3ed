"""VirtualLink contracts and derived quantities."""

import pytest

from repro.errors import InvalidVirtualLinkError
from repro.network import VirtualLink
from repro.network.virtual_link import ETHERNET_MAX_FRAME_BYTES, ETHERNET_MIN_FRAME_BYTES


def make_vl(**overrides):
    fields = dict(
        name="v1",
        source="e1",
        paths=(("e1", "S1", "e2"),),
        bag_ms=4.0,
        s_max_bytes=500.0,
        s_min_bytes=64.0,
    )
    fields.update(overrides)
    return VirtualLink(**fields)


class TestDerived:
    def test_bag_us(self):
        assert make_vl().bag_us == 4000.0

    def test_s_max_bits(self):
        assert make_vl().s_max_bits == 4000.0

    def test_rate(self):
        # 4000 bits / 4000 us = 1 bit/us
        assert make_vl().rate_bits_per_us == 1.0

    def test_c_max_at_100mbps(self):
        assert make_vl().c_max_us(100.0) == 40.0

    def test_c_min(self):
        assert make_vl().c_min_us(100.0) == pytest.approx(5.12)

    def test_destinations(self):
        vl = make_vl(paths=(("e1", "S1", "e2"), ("e1", "S1", "e3")))
        assert vl.destinations == ("e2", "e3")

    def test_multicast_flag(self):
        assert not make_vl().is_multicast
        assert make_vl(paths=(("e1", "S1", "e2"), ("e1", "S1", "e3"))).is_multicast


class TestValidation:
    def test_bag_must_be_positive(self):
        with pytest.raises(InvalidVirtualLinkError):
            make_vl(bag_ms=0)

    def test_nonstrict_accepts_any_positive_bag(self):
        make_vl(bag_ms=3.7)

    def test_s_max_positive(self):
        with pytest.raises(InvalidVirtualLinkError):
            make_vl(s_max_bytes=0)

    def test_s_min_le_s_max(self):
        with pytest.raises(InvalidVirtualLinkError):
            make_vl(s_min_bytes=600, s_max_bytes=500)

    def test_path_must_start_at_source(self):
        with pytest.raises(InvalidVirtualLinkError, match="start at source"):
            make_vl(paths=(("e9", "S1", "e2"),))

    def test_path_may_not_repeat_nodes(self):
        with pytest.raises(InvalidVirtualLinkError, match="repeats"):
            make_vl(paths=(("e1", "S1", "e1"),))

    def test_duplicate_paths_rejected(self):
        with pytest.raises(InvalidVirtualLinkError, match="duplicate"):
            make_vl(paths=(("e1", "S1", "e2"), ("e1", "S1", "e2")))

    def test_at_least_one_path(self):
        with pytest.raises(InvalidVirtualLinkError, match="at least one path"):
            make_vl(paths=())

    def test_short_path_rejected(self):
        with pytest.raises(InvalidVirtualLinkError):
            make_vl(paths=(("e1",),))

    def test_empty_name_rejected(self):
        with pytest.raises(InvalidVirtualLinkError):
            make_vl(name="")

    def test_ethernet_constants(self):
        assert ETHERNET_MIN_FRAME_BYTES == 64
        assert ETHERNET_MAX_FRAME_BYTES == 1518


class TestFunctionalUpdates:
    def test_with_bag(self):
        vl = make_vl().with_bag_ms(32)
        assert vl.bag_ms == 32
        assert vl.name == "v1"

    def test_with_bag_allows_nonstandard(self):
        assert make_vl().with_bag_ms(5.0).bag_ms == 5.0

    def test_with_s_max(self):
        vl = make_vl().with_s_max_bytes(1000)
        assert vl.s_max_bytes == 1000

    def test_with_s_max_clamps_s_min(self):
        vl = make_vl(s_min_bytes=500, s_max_bytes=500).with_s_max_bytes(100)
        assert vl.s_min_bytes == 100

    def test_with_paths(self):
        vl = make_vl().with_paths([("e1", "S2", "e2")])
        assert vl.paths == (("e1", "S2", "e2"),)
