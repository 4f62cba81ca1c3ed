"""Random configuration generator for fuzzing."""

import pytest

from repro.configs import random_network
from repro.configs.industrial import repair_overload
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


def full_recompute_repair(network, utilization_target, shrink_above_bytes):
    """The repair loop summing every port again after each repair (oracle)."""
    repairs = 0
    while True:
        worst = max(network.used_ports(), key=network.port_utilization)
        if network.port_utilization(worst) <= utilization_target:
            return repairs
        members = sorted(
            network.vls_at_port(worst),
            key=lambda name: (-network.vl(name).rate_bits_per_us, name),
        )
        victim = network.vl(members[0])
        if victim.bag_ms < 128:
            network.replace_virtual_link(victim.with_bag_ms(victim.bag_ms * 2))
        else:
            assert victim.s_max_bytes > shrink_above_bytes
            network.replace_virtual_link(
                victim.with_s_max_bytes(max(64.0, victim.s_max_bytes / 2))
            )
        repairs += 1


@pytest.mark.parametrize("seed", range(4))
def test_repair_matches_a_full_recomputation(seed):
    # a repair re-sums only the slowed VL's ports: every choice, and so
    # the repaired network, must be the one a full recomputation makes
    network = random_network(
        seed, n_switches=2, n_end_systems=5, n_virtual_links=60, utilization_target=0.99
    )
    repaired, reference = network.copy(), network.copy()
    repairs = repair_overload(repaired, 0.2, shrink_above_bytes=64.0)
    assert repairs > 10
    assert repairs == full_recompute_repair(reference, 0.2, 64.0)
    assert repaired.virtual_links == reference.virtual_links
