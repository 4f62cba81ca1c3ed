"""Static-priority (SPQ) Network Calculus analysis.

The DATE 2010 paper analyses the pure-FIFO AFDX; ARINC 664 switches
however support **two static priority levels** per output port, and the
same research group studied exactly this extension (Ridouard, Scharbarg
& Fraboul, *"Stochastic upper bounds for heterogeneous flows using a
Static Priority Queueing on an AFDX network"*).  This module provides
the deterministic SPQ counterpart of
:class:`repro.netcalc.analyzer.NetworkCalculusAnalyzer`:

* **high-priority class** (``VirtualLink.priority == 1``): served at
  link rate after the technological latency *plus* one maximal
  low-priority frame of non-preemptive blocking —
  ``beta_H = R (t - T - C_L_max / 1)+`` with
  ``C_L_max`` the largest low frame crossing the port;
* **low-priority class** (``priority == 0``): receives the *leftover*
  service ``beta_L(t) = [beta(t) - alpha_H(t)]+`` where ``alpha_H`` is
  the high class's (grouped) aggregate arrival curve — a convex
  piecewise-linear curve handled directly by the horizontal-deviation
  machinery;
* FIFO aggregation within each class, grouping by input link within
  each class, and downstream burst inflation by the class delay, as in
  the FIFO analyzer.

With every VL left at the default priority 0 the analysis degenerates
to the FIFO one (no high traffic, no blocking), which the test suite
checks.
"""

from __future__ import annotations

import math
from typing import Dict, List, Tuple

from repro.curves import (
    LeakyBucket,
    PiecewiseCurve,
    RateLatency,
    add_curves,
    horizontal_deviation,
    sum_curves,
    vertical_deviation,
)
from repro.errors import UnstableNetworkError
from repro.netcalc.grouping import arrival_groups, group_arrival_curve
from repro.netcalc.results import NetworkCalculusResult, PathBound, PortAnalysis
from repro.network.port import PortId
from repro.network.port_graph import topological_port_order
from repro.network.preflight import check_network
from repro.network.topology import Network

__all__ = ["StaticPriorityAnalyzer", "analyze_static_priority", "leftover_service"]

_EPS = 1e-9


def leftover_service(beta: PiecewiseCurve, alpha_high: PiecewiseCurve) -> PiecewiseCurve:
    """The low-priority leftover service curve ``[beta - alpha_high]+``.

    ``beta`` convex and ``alpha_high`` concave make the difference
    convex; clamping at zero keeps it a valid (wide-sense increasing
    after its dead time) service curve.  Returns a piecewise-linear
    curve whose final slope is ``beta.final_slope -
    alpha_high.final_slope`` (must be positive for stability).
    """
    tail = beta.final_slope - alpha_high.final_slope
    if tail <= _EPS:
        raise UnstableNetworkError(
            "high-priority traffic saturates the link: no leftover service "
            f"(rates {alpha_high.final_slope:.3f} vs {beta.final_slope:.3f})"
        )
    knots = sorted(
        {x for x, _ in beta.breakpoints}
        | {x for x, _ in alpha_high.breakpoints}
    )
    # add the zero-crossing of (beta - alpha_high) so the clamp is exact
    crossing = None
    horizon = knots[-1] + 1.0
    probe = knots + [horizon]
    for x0, x1 in zip(probe, probe[1:]):
        d0 = beta(x0) - alpha_high(x0)
        d1 = beta(x1) - alpha_high(x1)
        if d0 < -_EPS and d1 > _EPS:
            crossing = x0 + (x1 - x0) * (-d0) / (d1 - d0)
            break
    last = knots[-1]
    if beta(last) - alpha_high(last) < -_EPS and crossing is None:
        # still negative at the last knot: crosses on the final segments
        d_last = beta(last) - alpha_high(last)
        crossing = last + (-d_last) / tail
    if crossing is not None:
        knots = sorted(set(knots) | {crossing})
    points = [(x, max(0.0, beta(x) - alpha_high(x))) for x in knots]
    return PiecewiseCurve(points, tail)


class StaticPriorityAnalyzer:
    """Per-path delay bounds under two-level static priority queueing.

    Parameters
    ----------
    network:
        The configuration; ``VirtualLink.priority`` selects each VL's
        class (1 = high, 0 = low).
    grouping:
        Apply the input-link grouping technique within each class.
    """

    HIGH = 1
    LOW = 0

    def __init__(self, network: Network, grouping: bool = True):
        self.network = network
        self.grouping = grouping
        self._result: "NetworkCalculusResult | None" = None

    def analyze(self) -> NetworkCalculusResult:
        """Run the SPQ propagation and return (and cache) the result."""
        if self._result is not None:
            return self._result
        network = self.network
        check_network(network)
        order = topological_port_order(network)
        next_ports = network.routing_table().next_ports

        entering: Dict[Tuple[str, PortId], LeakyBucket] = {}
        for name, vl in network.virtual_links.items():
            first_port = (vl.source, vl.paths[0][1])
            entering[(name, first_port)] = LeakyBucket(
                rate=vl.rate_bits_per_us, burst=vl.s_max_bits
            )

        result = NetworkCalculusResult(grouping=self.grouping)
        # per (port, class) delay; per-flow lookups use the flow's class
        class_delay: Dict[Tuple[PortId, int], float] = {}

        for port_id in order:
            flows = network.vls_at_port(port_id)
            buckets = {name: entering[(name, port_id)] for name in sorted(flows)}
            port = network.output_port(*port_id)
            beta = RateLatency(
                rate=port.rate_bits_per_us, latency=port.latency_us
            ).curve()

            alpha_by_class, n_groups = self._class_aggregates(port_id, buckets)
            delays = self._class_delays(port_id, alpha_by_class, beta, flows)
            for level, delay in delays.items():
                class_delay[(port_id, level)] = delay

            # the shared buffer holds both classes: backlog of the sum
            aggregate = add_curves(alpha_by_class[self.HIGH], alpha_by_class[self.LOW])
            backlog = vertical_deviation(aggregate, beta)
            result.ports[port_id] = PortAnalysis(
                port_id=port_id,
                delay_us=max(delays.values()),
                backlog_bits=backlog,
                utilization=network.port_utilization(port_id),
                n_flows=len(flows),
                n_groups=n_groups,
            )

            for name in sorted(flows):
                targets = next_ports[(name, port_id)]
                if targets:
                    level = network.vl(name).priority
                    out_bucket = buckets[name].delayed(delays[level])
                    for pid in targets:
                        entering[(name, pid)] = out_bucket

        for vl_name, path_index, node_path in network.flow_paths():
            level = network.vl(vl_name).priority
            port_ids = tuple((a, b) for a, b in zip(node_path, node_path[1:]))
            per_port = tuple(class_delay[(pid, level)] for pid in port_ids)
            result.paths[(vl_name, path_index)] = PathBound(
                vl_name=vl_name,
                path_index=path_index,
                node_path=tuple(node_path),
                port_ids=port_ids,
                per_port_delay_us=per_port,
                total_us=math.fsum(per_port),
            )
        self._result = result
        return result

    # ------------------------------------------------------------------

    def _class_aggregates(
        self, port_id: PortId, buckets: Dict[str, LeakyBucket]
    ) -> Tuple[Dict[int, PiecewiseCurve], int]:
        """Grouped aggregate arrival curve per priority class."""
        network = self.network
        groups = arrival_groups(network, port_id)
        per_class: Dict[int, List[PiecewiseCurve]] = {self.HIGH: [], self.LOW: []}
        n_groups = 0
        for key, members in sorted(groups.items()):
            for level in (self.HIGH, self.LOW):
                subset = [
                    m for m in sorted(members) if network.vl(m).priority == level
                ]
                if not subset:
                    continue
                n_groups += 1
                per_class[level].append(
                    group_arrival_curve(network, key, subset, buckets, self.grouping)
                )
        return (
            {level: sum_curves(curves) for level, curves in per_class.items()},
            n_groups,
        )

    def _class_delays(
        self,
        port_id: PortId,
        alpha_by_class: Dict[int, PiecewiseCurve],
        beta: PiecewiseCurve,
        flows,
    ) -> Dict[int, float]:
        """FIFO-within-class delay bound for each priority level."""
        network = self.network
        rate = network.link_rate(*port_id)

        # high class: full service minus one low frame of blocking
        low_frames = [
            network.vl(name).s_max_bits
            for name in flows
            if network.vl(name).priority == self.LOW
        ]
        blocking_us = (max(low_frames) / rate) if low_frames else 0.0
        latency = network.node(port_id[0]).technological_latency_us
        beta_high = RateLatency(rate=rate, latency=latency + blocking_us).curve()
        delays: Dict[int, float] = {}

        alpha_high = alpha_by_class[self.HIGH]
        delays[self.HIGH] = horizontal_deviation(alpha_high, beta_high)

        # low class: leftover service after the high aggregate
        if alpha_high.burst <= _EPS and alpha_high.final_slope <= _EPS:
            beta_low = beta
        else:
            beta_low = leftover_service(beta, alpha_high)
        delays[self.LOW] = horizontal_deviation(alpha_by_class[self.LOW], beta_low)

        for level, delay in delays.items():
            if math.isinf(delay):
                raise UnstableNetworkError(
                    f"no finite delay bound for priority class {level} at port "
                    f"{port_id[0]}->{port_id[1]}"
                )
        return delays


def analyze_static_priority(
    network: Network, grouping: bool = True
) -> NetworkCalculusResult:
    """One-shot convenience wrapper around :class:`StaticPriorityAnalyzer`."""
    return StaticPriorityAnalyzer(network, grouping=grouping).analyze()
