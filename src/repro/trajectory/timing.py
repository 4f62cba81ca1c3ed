"""Earliest/latest arrival times (``Smin`` / ``Smax``) along VL trees.

The Trajectory approach offsets the workload of a competing flow ``j``
at the first port it shares with the flow under study ``i`` by

    ``A_ij = Smax(j, f) - Smin(i, f)``

where ``Smin(x, p)`` / ``Smax(x, p)`` bound the time between the release
of a frame of ``x`` at its source and its arrival in the queue of port
``p`` on its path.  ``Smin`` is exact (minimum-size frames, bare
latencies, empty queues).  ``Smax`` must be a *sound upper bound*; we
seed it from the Network Calculus per-port delay bounds — themselves
sound — and let the analyzer tighten it with trajectory prefix bounds
(see :class:`repro.trajectory.analyzer.TrajectoryAnalyzer`).
"""

from __future__ import annotations

import math
from typing import Dict, Tuple

from repro.netcalc.results import NetworkCalculusResult
from repro.network.port import PortId
from repro.network.topology import Network

__all__ = ["FlowPortKey", "tree_prefixes", "compute_smin", "seed_smax_from_netcalc"]

FlowPortKey = Tuple[str, PortId]


def tree_prefixes(network: Network) -> Dict[FlowPortKey, Tuple[PortId, ...]]:
    """For every (VL, port) of every VL tree: the unique port prefix.

    The prefix of port ``p`` on VL ``v`` is the sequence of ports a
    frame of ``v`` traverses from the source up to *and including*
    ``p``.  Because multicast paths form a tree, the prefix is unique
    even when several paths share ``p``.  Read from the network's
    :class:`~repro.network.topology.RoutingTable` (shared; do not
    mutate).
    """
    return network.routing_table().prefixes


def compute_smin(network: Network) -> Dict[FlowPortKey, float]:
    """Earliest arrival of each VL's frames in each of its port queues.

    Measured from the frame's release into its source ES output queue:
    the frame crosses every earlier port in its bare minimum
    transmission time and incurs each downstream node's technological
    latency, meeting no contention at all.  ``Smin(v, first port) = 0``.
    Link rates and latencies are read once per port, frame sizes once
    per VL.
    """
    table = network.routing_table()
    rates = {pid: network.link_rate(*pid) for pid in table.members}
    latencies = _owner_latencies(network, table.members)
    frames = {name: vl.s_min_bits for name, vl in network.virtual_links.items()}
    smin: Dict[FlowPortKey, float] = {}
    for key, prefix in table.prefixes.items():
        bits = frames[key[0]]
        terms = [bits / rates[earlier] for earlier in prefix[:-1]]
        terms.extend([latencies[later] for later in prefix[1:]])
        smin[key] = math.fsum(terms)
    return smin


def seed_smax_from_netcalc(
    network: Network, nc_result: NetworkCalculusResult
) -> Dict[FlowPortKey, float]:
    """Sound initial ``Smax`` from Network Calculus per-port bounds.

    The NC delay bound of port ``q`` covers a frame from its arrival at
    the node owning ``q`` to the end of its transmission, so::

        Smax(v, p_m) <= sum of NC delays of p_1 .. p_{m-1}
                        + technological latency of p_m's owner

    with ``Smax(v, first port) = 0`` (release *is* the arrival in the
    first queue): ``math.fsum([]) == 0.0``.
    """
    table = network.routing_table()
    latencies = _owner_latencies(network, table.members)
    delays = {pid: port.delay_us for pid, port in nc_result.ports.items()}
    smax: Dict[FlowPortKey, float] = {}
    for key, prefix in table.prefixes.items():
        terms = [delays[earlier] for earlier in prefix[:-1]]
        if len(prefix) > 1:
            terms.append(latencies[key[1]])
        smax[key] = math.fsum(terms)
    return smax


def _owner_latencies(network: Network, ports) -> Dict[PortId, float]:
    """The technological latency of each port's owner node."""
    return {pid: network.node(pid[0]).technological_latency_us for pid in ports}
