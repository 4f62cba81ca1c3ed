"""The :class:`Network` container: nodes, links, ports, Virtual Links.

A :class:`Network` holds the physical topology (nodes and full-duplex
links) and the static flow configuration (Virtual Links).  It derives
the objects the analyses operate on: :class:`~repro.network.port.OutputPort`
instances, per-port flow sets, per-flow output-port sequences, and the
:class:`RoutingTable` every path query reads.
"""

from __future__ import annotations

import math
from types import MappingProxyType
from typing import Any, Dict, FrozenSet, List, Mapping, Optional, Set, Tuple

from repro import units
from repro.errors import (
    DuplicateNameError,
    InvalidTopologyError,
    InvalidVirtualLinkError,
    UnknownNodeError,
)
from repro.network.node import EndSystem, Node, Switch
from repro.network.port import OutputPort, PortId
from repro.network.virtual_link import VirtualLink

__all__ = ["Network", "FlowPath", "RoutingTable"]

#: A concrete unicast trajectory: ``(vl_name, path_index)``.
FlowPath = Tuple[str, int]


#: the successors of every sink port: one shared empty set
_NO_PORTS: FrozenSet[PortId] = frozenset()


def _interned_ports(path: Tuple[str, ...], canon: Dict[PortId, PortId]) -> Tuple[PortId, ...]:
    """The output ports of one path, one shared object per port id.

    ``canon`` maps each port id seen so far to its first object.  A
    table keeps the port ids it stores, so sharing them keeps its
    memory at one tuple per port instead of one per path hop.
    """
    return tuple([canon.setdefault(pid, pid) for pid in zip(path, path[1:])])


class RoutingTable:
    """The routing facts of one network, each section built on first use.

    ``successors``
        the port graph: every used port, in sorted order, mapped to the
        ports some VL path visits right after it.  One pass over the
        paths.

    The tree facts, built together in one pass over the paths in the
    order of :meth:`Network.flow_paths` (sorted VL names, then path
    order, then hop order):

    ``prefixes``
        for every output port of every VL tree, keyed ``(vl_name,
        port_id)``: the ports a frame of the VL crosses from its source
        up to *and including* the port.  Unique because multicast paths
        form a tree (for a non-tree VL, which the configuration gate
        rejects, the first path's prefix).  Its second-to-last entry is
        the upstream port (:meth:`upstream`);
    ``next_ports``
        for the same keys: the port's children in the VL's tree, in
        first-seen path order;
    ``members``
        for every used port: the sorted names of the VLs crossing it.

    ``utilization`` maps ports to their utilization, filled by
    :meth:`Network.port_utilization`.

    A section costs nothing until it is read, so a caller that needs
    only the port graph (``dirty_closure`` on a cache-served what-if
    edit) or only utilization (a generator's repair loop) builds no
    tree facts.  The table describes the VLs it was created with; the
    network drops it on every mutation.  The mappings are shared, so
    callers must not mutate them.
    """

    __slots__ = ("_vls", "_successors", "_tree", "utilization")

    def __init__(self, vls: Dict[str, VirtualLink]) -> None:
        self._vls = dict(vls)
        self._successors: Optional[Dict[PortId, FrozenSet[PortId]]] = None
        self._tree: Optional[Tuple[Dict, Dict, Dict]] = None
        self.utilization: Dict[PortId, float] = {}

    @property
    def successors(self) -> Dict[PortId, FrozenSet[PortId]]:
        if self._successors is None:
            canon: Dict[PortId, PortId] = {}
            succ: Dict[PortId, Set[PortId]] = {}
            for vl in self._vls.values():
                for path in vl.paths:
                    ports = _interned_ports(path, canon)
                    for pid in ports:
                        succ.setdefault(pid, set())
                    for p, q in zip(ports, ports[1:]):
                        succ[p].add(q)
            self._successors = {
                pid: frozenset(succ[pid]) if succ[pid] else _NO_PORTS for pid in sorted(succ)
            }
        return self._successors

    @property
    def prefixes(self) -> Dict[Tuple[str, PortId], Tuple[PortId, ...]]:
        return self._tree_facts()[0]

    @property
    def next_ports(self) -> Dict[Tuple[str, PortId], Tuple[PortId, ...]]:
        return self._tree_facts()[1]

    @property
    def members(self) -> Dict[PortId, Tuple[str, ...]]:
        return self._tree_facts()[2]

    def upstream(self, key: Tuple[str, PortId]) -> Optional[PortId]:
        """The port before ``key``'s port on its VL tree (None at the root)."""
        prefix = self._tree_facts()[0][key]
        return prefix[-2] if len(prefix) > 1 else None

    def _tree_facts(self) -> Tuple[Dict, Dict, Dict]:
        if self._tree is None:
            prefixes: Dict[Tuple[str, PortId], Tuple[PortId, ...]] = {}
            children: Dict[Tuple[str, PortId], List[PortId]] = {}
            members: Dict[PortId, List[str]] = {}
            canon: Dict[PortId, PortId] = {}
            vls = self._vls
            for name in sorted(vls):
                for path in vls[name].paths:
                    ports = _interned_ports(path, canon)
                    for pos, pid in enumerate(ports):
                        key = (name, pid)
                        if key not in prefixes:
                            prefixes[key] = ports[: pos + 1]
                            children[key] = []
                            # VL names arrive sorted: each member list is too
                            members.setdefault(pid, []).append(name)
                        if pos:
                            siblings = children[(name, ports[pos - 1])]
                            if pid not in siblings:
                                siblings.append(pid)
            self._tree = (
                prefixes,
                {key: tuple(nexts) for key, nexts in children.items()},
                {pid: tuple(names) for pid, names in members.items()},
            )
        return self._tree


class Network:
    """An AFDX network: topology plus Virtual Link configuration.

    Parameters
    ----------
    rate_bits_per_us:
        Default transmission rate of every link (100 bits/us = 100 Mb/s,
        the rate used throughout the paper).  Individual links may
        override it via :meth:`add_link`.
    name:
        Optional human-readable configuration name.
    """

    def __init__(self, rate_bits_per_us: float = units.MBPS_100, name: str = "afdx"):
        if rate_bits_per_us <= 0:
            raise ValueError(f"link rate must be positive, got {rate_bits_per_us}")
        self.name = name
        self.default_rate = float(rate_bits_per_us)
        self._nodes: Dict[str, Node] = {}
        # undirected physical links; key is the sorted name pair
        self._links: Dict[Tuple[str, str], float] = {}
        self._adjacency: Dict[str, Set[str]] = {}
        self._vls: Dict[str, VirtualLink] = {}
        self._make_views()
        self._port_flows_cache: Optional[Dict[PortId, FrozenSet[str]]] = None
        self._routing_cache: Optional[RoutingTable] = None
        # set by `repro.incremental.fingerprint.network_fingerprint`
        self._fingerprint: Optional[str] = None
        # set when the configuration gate's rules (CFG102/108/109 at
        # utilization 1.0) pass: `repro.network.preflight.check_network`
        # then has nothing left to judge
        self._gate_passed = False

    def _make_views(self) -> None:
        """The read-only views :attr:`nodes` and :attr:`virtual_links` hand out."""
        self._nodes_view: Mapping[str, Node] = MappingProxyType(self._nodes)
        self._vls_view: Mapping[str, VirtualLink] = MappingProxyType(self._vls)

    def __getstate__(self) -> Dict[str, Any]:
        state = dict(self.__dict__)
        del state["_nodes_view"], state["_vls_view"]  # views do not pickle
        return state

    def __setstate__(self, state: Dict[str, Any]) -> None:
        self.__dict__.update(state)
        self._make_views()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def add_node(self, node: Node) -> Node:
        """Register a node; raises on duplicate names."""
        if node.name in self._nodes:
            raise DuplicateNameError(f"node {node.name!r} is already defined")
        self._nodes[node.name] = node
        self._adjacency[node.name] = set()
        self._invalidate()
        return node

    def add_end_system(self, name: str, technological_latency_us: float = 0.0) -> EndSystem:
        """Create and register an end system."""
        node = EndSystem(name=name, technological_latency_us=technological_latency_us)
        self.add_node(node)
        return node

    def add_switch(self, name: str, technological_latency_us: Optional[float] = None) -> Switch:
        """Create and register a switch (default 16 us fabric latency)."""
        if technological_latency_us is None:
            node = Switch(name=name)
        else:
            node = Switch(name=name, technological_latency_us=technological_latency_us)
        self.add_node(node)
        return node

    def add_link(self, a: str, b: str, rate_bits_per_us: Optional[float] = None) -> None:
        """Wire a full-duplex link between two registered nodes.

        ARINC-664 wiring rules enforced here:

        * no self links, no parallel links;
        * an end system has exactly one link (checked fully by rule
          CFG109 of :mod:`repro.network.preflight`; here we reject a
          *second* link eagerly);
        * two end systems cannot be wired to each other.
        """
        for name in (a, b):
            if name not in self._nodes:
                raise UnknownNodeError(f"cannot link unknown node {name!r}")
        if a == b:
            raise InvalidTopologyError(f"self-link on node {a!r}")
        key = (min(a, b), max(a, b))
        if key in self._links:
            raise InvalidTopologyError(f"link {a!r} <-> {b!r} already exists")
        node_a, node_b = self._nodes[a], self._nodes[b]
        if node_a.is_end_system and node_b.is_end_system:
            raise InvalidTopologyError(
                f"end systems {a!r} and {b!r} cannot be wired directly: "
                "each ES connects to exactly one switch port"
            )
        for node in (node_a, node_b):
            if node.is_end_system and self._adjacency[node.name]:
                raise InvalidTopologyError(
                    f"end system {node.name!r} already has a link; "
                    "an ES connects to exactly one switch port"
                )
        rate = self.default_rate if rate_bits_per_us is None else float(rate_bits_per_us)
        if rate <= 0:
            raise ValueError(f"link rate must be positive, got {rate}")
        self._links[key] = rate
        self._adjacency[a].add(b)
        self._adjacency[b].add(a)
        self._invalidate()

    def add_virtual_link(self, vl: VirtualLink) -> VirtualLink:
        """Register a Virtual Link, checking it against the topology."""
        if vl.name in self._vls:
            raise DuplicateNameError(f"virtual link {vl.name!r} is already defined")
        self._check_vl_against_topology(vl)
        self._vls[vl.name] = vl
        self._invalidate()
        return vl

    def remove_virtual_link(self, name: str) -> VirtualLink:
        """Unregister a Virtual Link and return it."""
        vl = self.vl(name)
        del self._vls[name]
        self._invalidate()
        return vl

    def replace_virtual_link(self, vl: VirtualLink) -> VirtualLink:
        """Swap an existing VL for a modified copy (parameter sweeps)."""
        if vl.name not in self._vls:
            raise UnknownNodeError(f"virtual link {vl.name!r} is not defined")
        self._check_vl_against_topology(vl)
        self._vls[vl.name] = vl
        self._invalidate()
        return vl

    def _check_vl_against_topology(self, vl: VirtualLink) -> None:
        source = self._nodes.get(vl.source)
        if source is None:
            raise UnknownNodeError(f"VL {vl.name}: unknown source node {vl.source!r}")
        if not source.is_end_system:
            raise InvalidVirtualLinkError(
                f"VL {vl.name}: source {vl.source!r} is not an end system "
                "(mono-transmitter assumption)"
            )
        for path in vl.paths:
            for hop in path:
                if hop not in self._nodes:
                    raise UnknownNodeError(f"VL {vl.name}: unknown node {hop!r} in path {path}")
            dest = self._nodes[path[-1]]
            if not dest.is_end_system:
                raise InvalidVirtualLinkError(
                    f"VL {vl.name}: destination {path[-1]!r} is not an end system"
                )
            for mid in path[1:-1]:
                if not self._nodes[mid].is_switch:
                    raise InvalidVirtualLinkError(
                        f"VL {vl.name}: intermediate node {mid!r} in path {path} "
                        "is not a switch"
                    )
            for a, b in zip(path, path[1:]):
                if not self.has_link(a, b):
                    raise InvalidVirtualLinkError(
                        f"VL {vl.name}: path {path} uses non-existent link {a!r} <-> {b!r}"
                    )

    def _invalidate(self) -> None:
        self._port_flows_cache = None
        self._routing_cache = None
        self._fingerprint = None
        self._gate_passed = False

    # ------------------------------------------------------------------
    # Topology queries
    # ------------------------------------------------------------------

    @property
    def nodes(self) -> Mapping[str, Node]:
        """All registered nodes by name, as a read-only view."""
        return self._nodes_view

    @property
    def virtual_links(self) -> Mapping[str, VirtualLink]:
        """All registered VLs by name, as a read-only view.

        Change them through :meth:`add_virtual_link`,
        :meth:`replace_virtual_link` and :meth:`remove_virtual_link`,
        which drop every derived fact of the old configuration.
        """
        return self._vls_view

    def node(self, name: str) -> Node:
        """Look up a node, raising :class:`UnknownNodeError` if missing."""
        try:
            return self._nodes[name]
        except KeyError:
            raise UnknownNodeError(f"unknown node {name!r}") from None

    def vl(self, name: str) -> VirtualLink:
        """Look up a VL by name."""
        try:
            return self._vls[name]
        except KeyError:
            raise UnknownNodeError(f"unknown virtual link {name!r}") from None

    def has_link(self, a: str, b: str) -> bool:
        """True when a physical link joins nodes ``a`` and ``b``."""
        return (min(a, b), max(a, b)) in self._links

    def link_rate(self, a: str, b: str) -> float:
        """Rate of the physical link between ``a`` and ``b``."""
        try:
            return self._links[(min(a, b), max(a, b))]
        except KeyError:
            raise UnknownNodeError(f"no link between {a!r} and {b!r}") from None

    def neighbors(self, name: str) -> FrozenSet[str]:
        """Nodes physically linked to ``name``."""
        self.node(name)
        return frozenset(self._adjacency[name])

    def links(self) -> List[Tuple[str, str, float]]:
        """All physical links as ``(a, b, rate)`` triples (sorted)."""
        return [(a, b, rate) for (a, b), rate in sorted(self._links.items())]

    def end_systems(self) -> List[EndSystem]:
        """All end systems, sorted by name."""
        return sorted(
            (n for n in self._nodes.values() if n.is_end_system), key=lambda n: n.name
        )

    def switches(self) -> List[Switch]:
        """All switches, sorted by name."""
        return sorted((n for n in self._nodes.values() if n.is_switch), key=lambda n: n.name)

    # ------------------------------------------------------------------
    # Port-level view (what the analyses consume)
    # ------------------------------------------------------------------

    def output_port(self, owner: str, target: str) -> OutputPort:
        """The output port of ``owner`` feeding the link towards ``target``."""
        rate = self.link_rate(owner, target)
        return OutputPort(
            owner=owner,
            target=target,
            rate_bits_per_us=rate,
            latency_us=self.node(owner).technological_latency_us,
        )

    def port_path(self, vl_name: str, path_index: int = 0) -> Tuple[PortId, ...]:
        """Sequence of output ports visited by one path of a VL.

        For the paper's v1 on the Fig. 2 configuration
        (``e1 -> S1 -> S3 -> e6``) this is
        ``(e1->S1, S1->S3, S3->e6)``: the ES output port followed by one
        switch output port per crossed switch.
        """
        vl = self.vl(vl_name)
        try:
            path = vl.paths[path_index]
        except IndexError:
            raise InvalidVirtualLinkError(
                f"VL {vl_name} has {len(vl.paths)} paths; index {path_index} is out of range"
            ) from None
        return tuple((a, b) for a, b in zip(path, path[1:]))

    def flow_paths(self) -> List[Tuple[str, int, Tuple[str, ...]]]:
        """All unicast trajectories: ``(vl_name, path_index, node_path)``.

        These are the "VL paths" of the paper's statistics (Table I
        counts >6000 of them for ~1000 multicast VLs).
        """
        out: List[Tuple[str, int, Tuple[str, ...]]] = []
        for name in sorted(self._vls):
            for idx, path in enumerate(self._vls[name].paths):
                out.append((name, idx, path))
        return out

    def path_keys(self) -> Set[Tuple[str, int]]:
        """The ``(vl_name, path_index)`` keys of :meth:`flow_paths`:
        the keys every per-path result of this network carries."""
        return {
            (name, idx)
            for name, vl in self._vls.items()
            for idx in range(len(vl.paths))
        }

    def vls_at_port(self, port_id: PortId) -> FrozenSet[str]:
        """Names of the VLs whose frames cross the given output port.

        A multicast VL is counted once even when several of its paths
        share the port: the frame is only duplicated where paths fork,
        so upstream of the fork there is a single physical frame.
        """
        return self._port_flows().get(port_id, frozenset())

    def used_ports(self) -> List[PortId]:
        """Output ports crossed by at least one VL, sorted."""
        return sorted(self._port_flows().keys())

    def _port_flows(self) -> Dict[PortId, FrozenSet[str]]:
        if self._port_flows_cache is None:
            acc: Dict[PortId, Set[str]] = {}
            for name, vl in self._vls.items():
                for path in vl.paths:
                    for a, b in zip(path, path[1:]):
                        acc.setdefault((a, b), set()).add(name)
            self._port_flows_cache = {pid: frozenset(s) for pid, s in acc.items()}
        return self._port_flows_cache

    def routing_table(self) -> RoutingTable:
        """This network's :class:`RoutingTable`, built on first use.

        Every mutation drops it, so it always describes the current
        VLs; :meth:`copy` starts without one.
        """
        if self._routing_cache is None:
            self._routing_cache = RoutingTable(self._vls)
        return self._routing_cache

    def upstream_port(self, vl_name: str, port_id: PortId) -> Optional[PortId]:
        """The port a VL's frames traverse immediately before ``port_id``.

        Returns ``None`` when ``port_id`` is owned by the VL's source
        end system.  This identifies the *input link* through which the
        VL enters the node owning ``port_id`` — the grouping key of the
        serialization technique in both analyses.  Well-defined because
        multicast paths form a tree (unique prefix per node).
        """
        table = self.routing_table()
        key = (vl_name, port_id)
        if key in table.prefixes:
            return table.upstream(key)
        if port_id[0] == self.vl(vl_name).source:
            return None
        raise InvalidVirtualLinkError(
            f"VL {vl_name} does not cross port {port_id[0]}->{port_id[1]}"
        )

    def port_utilization(self, port_id: PortId) -> float:
        """Long-term utilization of a port: ``sum(s_max / BAG) / rate``.

        Summed in sorted-name order: float addition is not associative,
        and set iteration order varies with insertion history and hash
        seed — canonical order keeps the value bit-identical for
        set-equal networks (the incremental cache's contract).  Kept in
        the routing table, so the configuration gate and the analyses
        sum each port once.
        """
        known = self.routing_table().utilization
        if port_id in known:
            return known[port_id]
        rate = self.link_rate(*port_id)
        demand = math.fsum(
            self._vls[v].rate_bits_per_us for v in sorted(self.vls_at_port(port_id))
        )
        known[port_id] = demand / rate
        return known[port_id]

    def max_utilization(self) -> float:
        """Highest port utilization over the network (0.0 when no VLs)."""
        ports = self.used_ports()
        if not ports:
            return 0.0
        return max(self.port_utilization(pid) for pid in ports)

    # ------------------------------------------------------------------
    # Misc
    # ------------------------------------------------------------------

    def copy(self) -> "Network":
        """Deep-enough copy: nodes/links/VLs are immutable, so sharing is safe."""
        dup = Network(rate_bits_per_us=self.default_rate, name=self.name)
        dup._nodes.update(self._nodes)
        dup._links = dict(self._links)
        dup._adjacency = {k: set(v) for k, v in self._adjacency.items()}
        dup._vls.update(self._vls)
        return dup

    def __repr__(self) -> str:
        n_paths = sum(len(vl.paths) for vl in self._vls.values())
        return (
            f"Network({self.name!r}: {len(self.end_systems())} end systems, "
            f"{len(self.switches())} switches, {len(self._links)} links, "
            f"{len(self._vls)} VLs / {n_paths} paths)"
        )
