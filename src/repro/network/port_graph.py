"""Precedence graph over output ports and its topological order.

Both worst-case analyses require the *port graph* — the directed graph
whose vertices are the used output ports, with an edge ``p -> q``
whenever some VL path visits ``q`` immediately after ``p`` — to be
acyclic:

* the Network Calculus propagation processes ports in topological
  order, so every upstream burst is known before a port is analyzed;
* the Trajectory fixed point needs well-founded ``Smax`` prefixes.

ARINC-664 configurations are engineered feed-forward; a cycle raises
:class:`repro.errors.CyclicRoutingError`.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List

from repro.errors import CyclicRoutingError
from repro.network.port import PortId
from repro.network.topology import Network

__all__ = ["port_successors", "topological_port_order"]


def port_successors(network: Network) -> Dict[PortId, FrozenSet[PortId]]:
    """Adjacency of the port graph: ``p -> set of immediate successors``.

    Every used port appears as a key, in sorted order, including sink
    ports with no successors.  Read from the network's
    :class:`~repro.network.topology.RoutingTable` (shared; do not
    mutate).
    """
    return network.routing_table().successors


def topological_port_order(network: Network) -> List[PortId]:
    """Used ports in dependency order (Kahn's algorithm).

    Ties are broken by sorted port id so the order — and therefore every
    analysis result — is deterministic for a given configuration.

    Raises
    ------
    CyclicRoutingError
        When the VL routing induces a cycle among output ports.
    """
    succ = port_successors(network)
    indegree: Dict[PortId, int] = {pid: 0 for pid in succ}
    for targets in succ.values():
        for q in targets:
            indegree[q] += 1
    ready = sorted(pid for pid, deg in indegree.items() if deg == 0)
    order: List[PortId] = []
    while ready:
        current = ready.pop(0)
        order.append(current)
        inserted = False
        for q in sorted(succ[current]):
            indegree[q] -= 1
            if indegree[q] == 0:
                ready.append(q)
                inserted = True
        if inserted:
            ready.sort()
    if len(order) != len(succ):
        remaining = sorted(set(succ) - set(order))
        raise CyclicRoutingError(
            f"VL routing induces a cycle among output ports; involved ports: "
            f"{', '.join(f'{a}->{b}' for a, b in remaining[:8])}"
        )
    return order

