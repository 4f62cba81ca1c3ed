"""Dual-network redundancy."""

import pytest

from repro.core import analyze_network
from repro.network import combine_redundant, duplicate_network
from repro.network.validation import validate_network


class TestDuplicate:
    def test_switches_renamed_end_systems_kept(self, fig2):
        twin = duplicate_network(fig2)
        assert "S1_B" in twin.nodes
        assert "S1" not in twin.nodes
        assert "e1" in twin.nodes

    def test_paths_renamed(self, fig2):
        twin = duplicate_network(fig2)
        assert twin.vl("v1").paths == (("e1", "S1_B", "S3_B", "e6"),)

    def test_contracts_preserved(self, fig2):
        twin = duplicate_network(fig2)
        for name, vl in fig2.virtual_links.items():
            other = twin.vl(name)
            assert other.bag_ms == vl.bag_ms
            assert other.s_max_bytes == vl.s_max_bytes
            assert other.priority == vl.priority

    def test_twin_validates(self, fig1):
        assert validate_network(duplicate_network(fig1)).ok

    def test_custom_suffix(self, fig2):
        twin = duplicate_network(fig2, suffix="_X")
        assert "S2_X" in twin.nodes

    def test_latencies_and_rates_copied(self, fig2):
        twin = duplicate_network(fig2)
        assert twin.node("S3_B").technological_latency_us == 16.0
        assert twin.link_rate("S1_B", "S3_B") == 100.0


class TestCombine:
    @pytest.fixture
    def merged(self, fig2):
        twin = duplicate_network(fig2)
        bounds_a = {k: p.best_us for k, p in analyze_network(fig2).paths.items()}
        bounds_b = {k: p.best_us for k, p in analyze_network(twin).paths.items()}
        return combine_redundant(fig2, twin, bounds_a, bounds_b)

    def test_identical_networks_symmetric(self, merged):
        for bound in merged.values():
            assert bound.bound_a_us == pytest.approx(bound.bound_b_us)
            assert bound.floor_a_us == pytest.approx(bound.floor_b_us)

    def test_first_copy_is_min(self, merged):
        for bound in merged.values():
            assert bound.first_copy_us == min(bound.bound_a_us, bound.bound_b_us)

    def test_any_copy_is_max(self, merged):
        for bound in merged.values():
            assert bound.any_copy_us == max(bound.bound_a_us, bound.bound_b_us)

    def test_skew_positive_and_consistent(self, merged):
        for bound in merged.values():
            assert bound.skew_us >= 0
            assert bound.skew_us >= bound.any_copy_us - bound.first_copy_us - 1e-9

    def test_mismatched_keys_rejected(self, fig2):
        twin = duplicate_network(fig2)
        with pytest.raises(ValueError, match="different VL paths"):
            combine_redundant(fig2, twin, {("v1", 0): 1.0}, {("v2", 0): 1.0})

    def test_asymmetric_networks(self, fig2):
        """A slower B-network shifts the combined figures correctly."""
        twin = duplicate_network(fig2)
        bounds_a = {k: p.best_us for k, p in analyze_network(fig2).paths.items()}
        bounds_b = {k: v + 100.0 for k, v in bounds_a.items()}  # degraded B
        merged = combine_redundant(fig2, twin, bounds_a, bounds_b)
        for key, bound in merged.items():
            assert bound.first_copy_us == pytest.approx(bounds_a[key])
            assert bound.any_copy_us == pytest.approx(bounds_b[key])
