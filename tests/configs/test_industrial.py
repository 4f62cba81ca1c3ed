"""Synthetic industrial configuration generator."""

import pytest

from repro.configs import IndustrialConfigSpec, industrial_network
from repro.network.port_graph import topological_port_order
from repro.network.preflight import ConfigVerifier


@pytest.fixture(scope="module")
def small():
    return industrial_network(
        IndustrialConfigSpec(n_virtual_links=80, end_systems_per_switch=5)
    )


class TestStructure:
    def test_eight_switches(self, small):
        assert len(small.switches()) == 8

    def test_end_system_count(self, small):
        assert len(small.end_systems()) == 8 * 5

    def test_vl_count(self, small):
        assert len(small.virtual_links) == 80

    def test_multicast_fanout_gives_many_paths(self, small):
        paths = small.flow_paths()
        assert len(paths) > 4 * len(small.virtual_links)  # mean fan-out > 4

    def test_path_lengths_one_to_four_switches(self, small):
        for _, _, path in small.flow_paths():
            crossed = len(path) - 2
            assert 1 <= crossed <= 4

    def test_feed_forward_by_construction(self, small):
        topological_port_order(small)  # must not raise

    def test_validates(self, small):
        assert ConfigVerifier().verify_network(small).ok

    def test_utilization_within_target(self, small):
        assert small.max_utilization() <= 0.15 + 1e-9


class TestDeterminism:
    def test_same_spec_same_network(self):
        spec = IndustrialConfigSpec(n_virtual_links=30, end_systems_per_switch=4)
        a = industrial_network(spec)
        b = industrial_network(spec)
        assert repr(a) == repr(b)
        assert a.vl("vl0001").paths == b.vl("vl0001").paths
        assert a.vl("vl0007").bag_ms == b.vl("vl0007").bag_ms

    def test_different_seed_differs(self):
        a = industrial_network(IndustrialConfigSpec(seed=1, n_virtual_links=30, end_systems_per_switch=4))
        b = industrial_network(IndustrialConfigSpec(seed=2, n_virtual_links=30, end_systems_per_switch=4))
        assert any(
            a.vl(n).s_max_bytes != b.vl(n).s_max_bytes for n in a.virtual_links
        )

    def test_byte_identical_across_hash_seeds(self):
        """Same spec -> byte-identical JSON under different PYTHONHASHSEED.

        The generator must not leak set/dict iteration order into the
        network: cache fingerprints and the incremental equivalence
        gate both assume a spec pins the configuration exactly.
        """
        import subprocess
        import sys

        code = (
            "import sys;"
            "from repro.configs import IndustrialConfigSpec, industrial_network;"
            "from repro.network import network_to_dict;"
            "import json;"
            "spec = IndustrialConfigSpec(n_virtual_links=40, end_systems_per_switch=4);"
            "json.dump(network_to_dict(industrial_network(spec)), sys.stdout, sort_keys=True)"
        )
        outs = {
            subprocess.run(
                [sys.executable, "-c", code],
                capture_output=True,
                text=True,
                check=True,
                env={"PYTHONPATH": "src", "PYTHONHASHSEED": seed},
            ).stdout
            for seed in ("0", "4242")
        }
        assert len(outs) == 1
        assert outs.pop()  # non-empty payload actually compared


class TestContracts:
    def test_bags_are_harmonic(self, small):
        for vl in small.virtual_links.values():
            assert vl.bag_ms in (1, 2, 4, 8, 16, 32, 64, 128)

    def test_frame_sizes_are_ethernet(self, small):
        for vl in small.virtual_links.values():
            assert 64 <= vl.s_max_bytes <= 1518

    def test_multicast_trees(self, small):
        # paths of one VL never re-join after forking (validated network)
        report = ConfigVerifier().verify_network(small)
        assert "CFG108" not in {f.rule_id for f in report.errors}


class TestFullScale:
    def test_published_scale(self):
        net = industrial_network(IndustrialConfigSpec())
        assert len(net.virtual_links) == 1000
        assert len(net.flow_paths()) > 6000
        assert len(net.end_systems()) > 100
        assert len(net.switches()) == 8
