"""Random configuration generator for fuzzing."""

import pytest

from repro.configs import random_network
from repro.network.port_graph import topological_port_order
from repro.network.preflight import ConfigVerifier


@pytest.mark.parametrize("seed", range(8))
def test_generated_networks_are_valid(seed):
    net = random_network(seed)
    assert ConfigVerifier().verify_network(net).ok
    topological_port_order(net)  # feed-forward by construction


def test_deterministic():
    a = random_network(42)
    b = random_network(42)
    assert repr(a) == repr(b)
    assert {n: v.paths for n, v in a.virtual_links.items()} == {
        n: v.paths for n, v in b.virtual_links.items()
    }


def test_respects_sizes():
    net = random_network(3, n_switches=4, n_end_systems=10, n_virtual_links=7)
    assert len(net.switches()) == 4
    assert len(net.end_systems()) == 10
    assert len(net.virtual_links) == 7


def test_utilization_repaired():
    net = random_network(0, n_virtual_links=30, utilization_target=0.5)
    assert net.max_utilization() <= 0.5 + 1e-9


def test_argument_validation():
    with pytest.raises(ValueError):
        random_network(0, n_switches=0)
    with pytest.raises(ValueError):
        random_network(0, n_end_systems=1)
