"""Property: JSON round trips preserve any generated configuration."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.configs import random_network
from repro.core import analyze_network
from repro.network import network_from_dict, network_to_dict


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=20, deadline=None)
def test_round_trip_preserves_structure(seed):
    network = random_network(seed, n_virtual_links=5)
    loaded = network_from_dict(network_to_dict(network))
    assert repr(loaded) == repr(network)
    assert set(loaded.virtual_links) == set(network.virtual_links)
    for name, vl in network.virtual_links.items():
        other = loaded.vl(name)
        assert other.paths == vl.paths
        assert other.bag_ms == vl.bag_ms
        assert other.s_max_bytes == vl.s_max_bytes
        assert other.s_min_bytes == vl.s_min_bytes
        assert other.priority == vl.priority
    assert loaded.links() == network.links()


@given(seed=st.integers(min_value=0, max_value=500))
@settings(max_examples=8, deadline=None)
def test_round_trip_preserves_analysis_results(seed):
    """The acid test: identical bounds before and after serialization."""
    network = random_network(seed, n_virtual_links=5)
    loaded = network_from_dict(network_to_dict(network))
    original = analyze_network(network)
    reloaded = analyze_network(loaded)
    for key in original.paths:
        assert reloaded.paths[key].network_calculus_us == pytest.approx(
            original.paths[key].network_calculus_us
        )
        assert reloaded.paths[key].trajectory_us == pytest.approx(
            original.paths[key].trajectory_us
        )
