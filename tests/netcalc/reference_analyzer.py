"""Test oracle: the per-flow Network Calculus propagation.

The product analyzer (:class:`repro.netcalc.analyzer.NetworkCalculusAnalyzer`)
reads every path fact from the network's routing table, folds each
input-link group's flows into one ``(rate, burst)`` pair and bounds
every port with the flat-float port kernel (:mod:`repro.netcalc.kernel`),
which replays the curve algebra's float operations without curve
objects (docs/PERFORMANCE.md, "Network Calculus").  This module keeps
the straight transcription those changes replaced: every port's flows,
upstream ports and next ports are found by rescanning every path of
every flow, every flow is a :class:`~repro.curves.LeakyBucket` whose
curve is added to its group with :func:`~repro.curves.sum_curves`, the
groups are capped with ``min_curves`` and summed into one
:class:`~repro.curves.PiecewiseCurve`, the bounds are
``horizontal_deviation`` and ``vertical_deviation`` of that curve, and
every port's utilization is summed afresh.

The contract is *faster, not looser*, bit for bit: every port's
``delay_us``, ``backlog_bits``, ``utilization``, ``n_flows`` and
``n_groups`` and every path's ``total_us`` must equal this oracle's.
``scripts/kernel_gate.py`` and ``tests/netcalc/test_reference.py`` diff
against it.

:class:`ReferenceNetworkCalculusAnalyzer` is a plain, uncached
:class:`NetworkCalculusAnalyzer`: the library gate and the path sums
are inherited; the ingress buckets, the port order and the per-port
walk are its own, so it shares no code with the port kernel.  Its own
methods carry ``_ref_`` names so they never shadow the product's.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Set, Tuple

from repro.curves import (
    LeakyBucket,
    PiecewiseCurve,
    RateLatency,
    horizontal_deviation,
    min_curves,
    sum_curves,
    vertical_deviation,
)
from repro.errors import CyclicRoutingError, InvalidVirtualLinkError, UnstableNetworkError
from repro.netcalc.analyzer import NetworkCalculusAnalyzer
from repro.netcalc.results import NetworkCalculusResult, PortAnalysis
from repro.network.port import PortId
from repro.network.preflight import check_network

__all__ = ["ReferenceNetworkCalculusAnalyzer"]


class ReferenceNetworkCalculusAnalyzer(NetworkCalculusAnalyzer):
    """The per-flow propagation behind the product's result type."""

    def __init__(self, network, grouping: bool = True, frame_overhead_bytes: float = 0.0):
        super().__init__(
            network, grouping=grouping, frame_overhead_bytes=frame_overhead_bytes
        )

    def analyze(self) -> NetworkCalculusResult:
        """Run the per-flow propagation (uncached, no stats)."""
        network = self.network
        check_network(network)
        entering = self._ref_ingress_buckets()
        result = NetworkCalculusResult(
            grouping=self.grouping, frame_overhead_bytes=self.frame_overhead_bytes
        )
        port_delay: Dict[PortId, float] = {}
        for port_id in self._ref_port_order():
            buckets = {
                name: entering[(name, port_id)]
                for name in sorted(network.vls_at_port(port_id))
            }
            analysis = self._ref_analyze_port(port_id, buckets)
            port_delay[port_id] = analysis.delay_us
            result.ports[port_id] = analysis
            self._ref_propagate_port(entering, port_id, analysis.delay_us)
        self.finalize_paths(result, port_delay)
        return result

    def _ref_ingress_buckets(self) -> Dict[Tuple[str, PortId], LeakyBucket]:
        """Every flow's leaky bucket at its source ES output port."""
        entering: Dict[Tuple[str, PortId], LeakyBucket] = {}
        for name, vl in self.network.virtual_links.items():
            first_port = (vl.source, vl.paths[0][1])
            entering[(name, first_port)] = LeakyBucket(
                rate=(vl.s_max_bits + self.frame_overhead_bits) / vl.bag_us,
                burst=vl.s_max_bits + self.frame_overhead_bits,
            )
        return entering

    # -- the port graph, by path rescan ----------------------------------

    def _ref_port_order(self) -> List[PortId]:
        """Used ports in Kahn order over successors found by path rescan."""
        network = self.network
        succ: Dict[PortId, Set[PortId]] = {pid: set() for pid in network.used_ports()}
        for _vl, _idx, path in network.flow_paths():
            ports = list(zip(path, path[1:]))
            for p, q in zip(ports, ports[1:]):
                succ[p].add(q)
        indegree = {pid: 0 for pid in succ}
        for targets in succ.values():
            for q in sorted(targets):
                indegree[q] += 1
        ready = sorted(pid for pid, degree in indegree.items() if degree == 0)
        order: List[PortId] = []
        while ready:
            current = ready.pop(0)
            order.append(current)
            for q in sorted(succ[current]):
                indegree[q] -= 1
                if indegree[q] == 0:
                    ready.append(q)
            ready.sort()
        if len(order) != len(succ):
            raise CyclicRoutingError("VL routing induces a cycle among output ports")
        return order

    def _ref_upstream_port(self, vl_name: str, port_id: PortId) -> Optional[PortId]:
        """The port before ``port_id`` on the first path of the VL crossing it."""
        vl = self.network.vl(vl_name)
        owner = port_id[0]
        if owner == vl.source:
            return None
        for path in vl.paths:
            for a, b in zip(path, path[1:]):
                if (a, b) == port_id:
                    idx = path.index(owner)
                    return (path[idx - 1], owner)
        raise InvalidVirtualLinkError(
            f"VL {vl_name} does not cross port {port_id[0]}->{port_id[1]}"
        )

    # -- one port ---------------------------------------------------------

    def _ref_group_curve(
        self, key: Tuple[str, ...], members: List[str], buckets: Dict[str, LeakyBucket]
    ) -> PiecewiseCurve:
        """One curve and one ``add_curves`` per member, then the shaping cap."""
        network = self.network
        summed = sum_curves(buckets[name].curve() for name in members)
        if not self.grouping or len(key) == 1:
            return summed
        link_rate = network.link_rate(*key)
        biggest_frame = max(network.vl(name).s_max_bits for name in members)
        return min_curves(summed, PiecewiseCurve.affine(link_rate, biggest_frame))

    def _ref_analyze_port(
        self, port_id: PortId, buckets: Dict[str, LeakyBucket]
    ) -> PortAnalysis:
        network = self.network
        groups: Dict[Tuple[str, ...], List[str]] = {}
        for name in sorted(buckets):
            upstream = self._ref_upstream_port(name, port_id)
            # a locally sourced flow is its own group, keyed (name,):
            # no port id, a pair of node names, can equal it
            key = upstream if upstream is not None else (name,)
            groups.setdefault(key, []).append(name)
        aggregate = sum_curves(
            self._ref_group_curve(key, members, buckets)
            for key, members in sorted(groups.items())
        )
        port = network.output_port(*port_id)
        beta = RateLatency(rate=port.rate_bits_per_us, latency=port.latency_us).curve()
        delay = horizontal_deviation(aggregate, beta)
        if math.isinf(delay):
            raise UnstableNetworkError(
                f"no finite delay bound at port {port}: aggregate long-term rate "
                f"{aggregate.final_slope:.3f} bits/us exceeds the link rate "
                f"{port.rate_bits_per_us:.3f}"
            )
        demand = math.fsum(network.vl(name).rate_bits_per_us for name in sorted(buckets))
        return PortAnalysis(
            port_id=port_id,
            delay_us=delay,
            backlog_bits=vertical_deviation(aggregate, beta),
            utilization=demand / port.rate_bits_per_us,
            n_flows=len(buckets),
            n_groups=len(groups),
        )

    def _ref_propagate_port(
        self,
        entering: Dict[Tuple[str, PortId], LeakyBucket],
        port_id: PortId,
        delay: float,
    ) -> None:
        """Burst-inflate each flow into the port after ``port_id`` on every path."""
        network = self.network
        for name in sorted(network.vls_at_port(port_id)):
            out_bucket = entering[(name, port_id)].delayed(delay)
            for path in network.vl(name).paths:
                ports = list(zip(path, path[1:]))
                for pos, pid in enumerate(ports):
                    if pid == port_id and pos + 1 < len(ports):
                        entering[(name, ports[pos + 1])] = out_bucket
