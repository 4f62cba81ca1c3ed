"""Synthetic industrial-scale AFDX configuration.

The paper's evaluation (Sec. II-C) runs on a proprietary Airbus
configuration: *"nearby 1000 virtual links corresponding to more than
6000 paths ... more than one hundred end systems and two redundant AFDX
sub-networks, each composed of eight switches"*.  That configuration is
not public, so this generator produces a seeded synthetic stand-in with
the same published structure (see DESIGN.md, "Substitution note"):

* one sub-network of eight switches (the two real sub-networks are
  redundant copies carrying the same VLs, so analysing one is
  representative), arranged as a partial mesh: switches ``S1 .. S8``
  with a physical link between every pair at index distance <= 3
  (18 inter-switch links);
* **monotone hash-spread routing**: a flow towards a higher-indexed
  switch only ever hops to higher-indexed switches (and symmetrically
  downwards), taking strides of 2-3 chosen by a per-(VL, node) hash.
  Monotone switch sequences make the output-port graph acyclic *by
  construction* (an increasing chain cannot loop), the hash spreads
  load over all 36 directed inter-switch ports, and stride <= 3 over 8
  switches bounds paths at 4 crossed switches — the path lengths of
  the paper's configuration.  Per-(VL, node) (rather than per-path)
  stride choice makes every multicast VL's paths share prefixes, i.e.
  form a tree;
* ~100 end systems spread over the switches;
* ~1000 multicast VLs averaging >6 destinations (>6000 paths), with
  harmonic BAGs in 1..128 ms and Ethernet frame sizes in 64..1518 B,
  drawn from distributions skewed the way avionics traffic is (many
  small, frequent samples; few large, slow file-style transfers);
* automatic admission-control repair: while any output port exceeds the
  utilization target, the highest-rate VL crossing the worst port gets
  its BAG doubled (then its frames shrunk) until the configuration is
  schedulable — mirroring how a real configuration is iterated.

Everything is driven by one :class:`random.Random` seed, so a given
:class:`IndustrialConfigSpec` always yields byte-identical
configurations.
"""

from __future__ import annotations

import math
import random
import zlib
from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.network.builder import NetworkBuilder
from repro.network.preflight import check_network
from repro.network.topology import Network
from repro.network.virtual_link import VirtualLink

__all__ = ["IndustrialConfigSpec", "industrial_network"]

#: (BAG in ms, sampling weight) — skewed towards the slower classes, as
#: published AFDX traffic breakdowns are.
_BAG_WEIGHTS: Tuple[Tuple[float, int], ...] = (
    (1, 1),
    (2, 2),
    (4, 4),
    (8, 8),
    (16, 14),
    (32, 20),
    (64, 26),
    (128, 25),
)

#: (s_max range in bytes, sampling weight) — mostly short periodic
#: samples, a tail of large frames (paper Fig. 6 spans 64..1518 B).
_SIZE_WEIGHTS: Tuple[Tuple[Tuple[int, int], int], ...] = (
    ((64, 150), 45),
    ((151, 300), 30),
    ((301, 600), 12),
    ((601, 900), 6),
    ((901, 1200), 4),
    ((1201, 1518), 3),
)

#: (destination count, weight) — mean above 6, reproducing the paper's
#: ">6000 paths for ~1000 VLs" fan-out.
_FANOUT_WEIGHTS: Tuple[Tuple[int, int], ...] = (
    (1, 10),
    (2, 10),
    (4, 15),
    (6, 20),
    (8, 20),
    (10, 15),
    (12, 10),
)

_N_SWITCHES = 8
_MAX_STRIDE = 3


@dataclass(frozen=True)
class IndustrialConfigSpec:
    """Parameters of the synthetic industrial configuration.

    The defaults reproduce the published scale; tests and quick demos
    shrink ``n_virtual_links`` / ``end_systems_per_switch``.
    """

    seed: int = 2010  # the paper's publication year, for the record
    n_virtual_links: int = 1000
    end_systems_per_switch: int = 13
    #: Real avionics networks are engineered far below saturation
    #: (published AFDX link loads are well under 15%); the traffic
    #: distributions above land just under this naturally, so the
    #: repair loop barely fires and BAG / frame-size statistics stay
    #: unbiased for the per-parameter studies (Figs. 5 and 6).
    utilization_target: float = 0.15
    switch_latency_us: float = 16.0
    name: str = "industrial"


def _weighted_choice(rng: random.Random, table: Sequence[Tuple[object, int]]) -> object:
    # repro-lint: allow[REPRO101] integer spec-table weights; exact in floats
    total = sum(weight for _, weight in table)
    pick = rng.uniform(0, total)
    acc = 0.0
    for value, weight in table:
        # repro-lint: allow[REPRO102] cumulative-weight scan in the fixed spec-table order
        acc += weight
        if pick <= acc:
            return value
    return table[-1][0]


def _build_topology(spec: IndustrialConfigSpec) -> Tuple[Network, List[str]]:
    """Partial-mesh sub-network: S1..S8, links at index distance <= 3."""
    builder = NetworkBuilder(name=spec.name, switch_latency_us=spec.switch_latency_us)
    switches = [f"S{i + 1}" for i in range(_N_SWITCHES)]
    builder.switches(*switches)
    for i in range(_N_SWITCHES):
        for j in range(i + 1, min(i + _MAX_STRIDE, _N_SWITCHES - 1) + 1):
            builder.link(switches[i], switches[j])

    end_systems: List[str] = []
    counter = 1
    for switch in switches:
        for _ in range(spec.end_systems_per_switch):
            name = f"es{counter:03d}"
            builder.end_systems(name)
            builder.link(name, switch)
            end_systems.append(name)
            counter += 1
    return builder.build(validate=False), end_systems


def _stride(vl_name: str, position: int, direction: int) -> int:
    """Deterministic per-(VL, switch, direction) stride in {2, 3}.

    Depending only on the VL and the current switch (not on the
    destination) keeps multicast paths prefix-consistent — they form a
    tree, forking only where destinations force different clamps.
    """
    digest = zlib.crc32(f"{vl_name}|{position}|{direction}".encode())
    return 2 + digest % 2


def _switch_route(vl_name: str, source_pos: int, dest_pos: int) -> List[int]:
    """Monotone switch-index route from source to destination switch."""
    route = [source_pos]
    current = source_pos
    direction = 1 if dest_pos >= source_pos else -1
    while current != dest_pos:
        remaining = abs(dest_pos - current)
        if remaining <= _MAX_STRIDE:
            step = remaining  # direct link available: take it (paper: <= 4 switches)
        else:
            step = _stride(vl_name, current, direction)
        current += direction * step
        route.append(current)
    return route


def _route_paths(
    vl_name: str,
    source: str,
    destinations: Sequence[str],
    attachment: dict,
) -> Tuple[Tuple[str, ...], ...]:
    """One node path per destination, through the monotone switch routes."""
    paths = []
    for dest in destinations:
        switch_route = _switch_route(vl_name, attachment[source], attachment[dest])
        nodes = (source, *(f"S{pos + 1}" for pos in switch_route), dest)
        paths.append(nodes)
    return tuple(paths)


def _draw_virtual_links(
    end_systems: List[str], attachment: dict, spec: IndustrialConfigSpec
) -> List[VirtualLink]:
    rng = random.Random(spec.seed)
    vls: List[VirtualLink] = []
    for index in range(spec.n_virtual_links):
        name = f"vl{index + 1:04d}"
        source = rng.choice(end_systems)
        fanout = int(_weighted_choice(rng, _FANOUT_WEIGHTS))
        candidates = [es for es in end_systems if es != source]
        destinations = sorted(rng.sample(candidates, min(fanout, len(candidates))))
        bag_ms = float(_weighted_choice(rng, _BAG_WEIGHTS))
        lo, hi = _weighted_choice(rng, _SIZE_WEIGHTS)
        s_max = float(rng.randint(lo, hi))
        vls.append(
            VirtualLink(
                name=name,
                source=source,
                paths=_route_paths(name, source, destinations, attachment),
                bag_ms=bag_ms,
                s_max_bytes=s_max,
                s_min_bytes=min(64.0, s_max),
            )
        )
    return vls


def repair_overload(
    network: Network, utilization_target: float, shrink_above_bytes: float
) -> int:
    """Slow VLs down until every port meets ``utilization_target``.

    Returns the number of repair operations applied.  Deterministic:
    always fixes the currently worst port (the first in sorted order
    on a tie), always slows its highest-rate VL first: its BAG doubles
    while below 128 ms, then its frames halve (to no less than 64
    bytes) while larger than ``shrink_above_bytes``.  A VL slowed to
    that floor that still tops an overloaded port raises
    :class:`AssertionError`.

    A repair changes one VL's rate and no route, so only that VL's
    ports are summed again, by the expression of
    :meth:`Network.port_utilization`: every float, and so every choice,
    is the one a full recomputation makes.
    """
    members = {pid: sorted(network.vls_at_port(pid)) for pid in network.used_ports()}
    utilization = {pid: network.port_utilization(pid) for pid in members}
    repairs = 0
    while members:
        worst = max(members, key=utilization.__getitem__)
        if utilization[worst] <= utilization_target:
            break
        victim = network.vl(
            min(
                members[worst],
                key=lambda name: (-network.vl(name).rate_bits_per_us, name),
            )
        )
        if victim.bag_ms < 128:
            network.replace_virtual_link(victim.with_bag_ms(victim.bag_ms * 2))
        elif victim.s_max_bytes > shrink_above_bytes:
            network.replace_virtual_link(
                victim.with_s_max_bytes(max(64.0, victim.s_max_bytes / 2))
            )
        else:
            raise AssertionError(
                "repair loop stuck: minimal-rate VL still overloads a port "
                "(spec asks for more traffic than the topology can carry)"
            )
        repairs += 1
        for path in victim.paths:
            for pid in zip(path, path[1:]):
                utilization[pid] = math.fsum(
                    network.vl(name).rate_bits_per_us for name in members[pid]
                ) / network.link_rate(*pid)
    return repairs


def industrial_network(spec: IndustrialConfigSpec = IndustrialConfigSpec()) -> Network:
    """Generate the seeded synthetic industrial configuration."""
    network, end_systems = _build_topology(spec)
    attachment = {}
    for es in end_systems:
        switch = next(iter(network.neighbors(es)))
        attachment[es] = int(switch[1:]) - 1
    for vl in _draw_virtual_links(end_systems, attachment, spec):
        network.add_virtual_link(vl)
    repair_overload(network, spec.utilization_target, shrink_above_bytes=128.0)
    check_network(network)
    return network
