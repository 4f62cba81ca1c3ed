"""Small random configurations for fuzz and property-based testing.

:func:`random_network` draws a random switch tree, attaches end systems
and routes a handful of random (possibly multicast) VLs, then repairs
overload by doubling BAGs.  Tree switch topologies plus unique
tree-path routing guarantee a feed-forward port graph, so every
generated configuration is analyzable by construction — which is what
the hypothesis-based invariant tests need.
"""

from __future__ import annotations

import random
from typing import List

from repro.configs.industrial import repair_overload
from repro.network.builder import NetworkBuilder
from repro.network.preflight import check_network
from repro.network.routing import route_virtual_link
from repro.network.topology import Network
from repro.network.virtual_link import STANDARD_BAGS_MS, VirtualLink

__all__ = ["random_network"]


def random_network(
    seed: int,
    n_switches: int = 3,
    n_end_systems: int = 8,
    n_virtual_links: int = 6,
    max_fanout: int = 3,
    utilization_target: float = 0.85,
) -> Network:
    """Generate a random, valid, analyzable AFDX configuration.

    All randomness comes from ``seed``; identical arguments always give
    identical networks.
    """
    if n_switches < 1:
        raise ValueError("need at least one switch")
    if n_end_systems < 2:
        raise ValueError("need at least two end systems (a source and a sink)")
    rng = random.Random(seed)
    builder = NetworkBuilder(name=f"random-{seed}")

    switches = [f"S{i + 1}" for i in range(n_switches)]
    builder.switches(*switches)
    # random tree over the switches: node i hangs off a random earlier node
    for i in range(1, n_switches):
        builder.link(switches[i], switches[rng.randrange(i)])

    end_systems = [f"e{i + 1}" for i in range(n_end_systems)]
    builder.end_systems(*end_systems)
    for es in end_systems:
        builder.link(es, rng.choice(switches))

    network = builder.build(validate=False)

    vls: List[VirtualLink] = []
    for index in range(n_virtual_links):
        source = rng.choice(end_systems)
        others = [es for es in end_systems if es != source]
        fanout = rng.randint(1, min(max_fanout, len(others)))
        destinations = sorted(rng.sample(others, fanout))
        s_max = float(rng.randint(64, 1518))
        vls.append(
            VirtualLink(
                name=f"v{index + 1}",
                source=source,
                paths=route_virtual_link(network, source, destinations),
                bag_ms=float(rng.choice(STANDARD_BAGS_MS)),
                s_max_bytes=s_max,
                s_min_bytes=float(rng.randint(64, int(s_max))),
            )
        )
    for vl in vls:
        network.add_virtual_link(vl)

    repair_overload(network, utilization_target, shrink_above_bytes=64.0)

    check_network(network)
    return network
