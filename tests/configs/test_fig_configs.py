"""The paper's bundled configurations."""

import pytest

from repro.configs import FIG2_BAG_MS, FIG2_S_MAX_BYTES, fig1_network, fig2_network
from repro.network.preflight import ConfigVerifier


class TestFig2:
    def test_structure_matches_paper(self, fig2):
        assert len(fig2.end_systems()) == 7
        assert len(fig2.switches()) == 3
        assert len(fig2.virtual_links) == 5

    def test_contracts(self, fig2):
        for vl in fig2.virtual_links.values():
            assert vl.bag_ms == FIG2_BAG_MS == 4.0
            assert vl.s_max_bytes == FIG2_S_MAX_BYTES == 500.0

    def test_paths(self, fig2):
        assert fig2.vl("v1").paths == (("e1", "S1", "S3", "e6"),)
        assert fig2.vl("v5").paths == (("e5", "S2", "S3", "e7"),)

    def test_frame_time_is_40us(self, fig2):
        assert fig2.vl("v1").c_max_us(fig2.default_rate) == 40.0

    def test_switch_latency_is_16us(self, fig2):
        assert fig2.node("S1").technological_latency_us == 16.0

    def test_validates(self, fig2):
        assert ConfigVerifier().verify_network(fig2).ok

    def test_parameterized_rebuild(self):
        net = fig2_network(bag_ms=8, s_max_bytes=1000)
        assert net.vl("v3").bag_ms == 8
        assert net.vl("v3").s_max_bytes == 1000

    def test_fresh_instances(self):
        assert fig2_network() is not fig2_network()


class TestFig1:
    def test_structure(self, fig1):
        assert len(fig1.switches()) == 5
        assert len(fig1.end_systems()) == 10
        assert len(fig1.virtual_links) == 10

    def test_v6_is_the_papers_multicast(self, fig1):
        v6 = fig1.vl("v6")
        assert v6.is_multicast
        assert set(v6.destinations) == {"e7", "e8"}

    def test_vx_is_unicast(self, fig1):
        assert not fig1.vl("vx").is_multicast

    def test_validates(self, fig1):
        assert ConfigVerifier().verify_network(fig1).ok

    def test_path_count(self, fig1):
        assert len(fig1.flow_paths()) == 12  # 8 unicast + 2x2 multicast
