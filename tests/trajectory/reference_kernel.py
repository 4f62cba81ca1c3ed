"""Test oracle: the plain dict-based trajectory walk.

The product analyzer (:class:`repro.trajectory.analyzer.TrajectoryAnalyzer`)
walks flat per-port competitor tables with batched folds and per-node
fold caches, a shared meeting tree, cross-sweep memos and a
candidate-dominance prune (docs/PERFORMANCE.md).  This module keeps the straight transcription of
the Martin & Minet busy-period walk those optimizations replaced:
competitor sets are dicts keyed by VL name, every meeting is discovered
afresh by name, every flow's events are recomputed, and the candidate
scan evaluates every instant.

The contract is Zippo & Stea's *faster, not looser*: the product's
bounds must equal this oracle's bit for bit — every float field and the
competitor count — and only ``n_candidates`` may be smaller in the
product.  ``scripts/kernel_gate.py``, ``tests/trajectory/test_kernels.py``
and ``tests/batch/test_fleet_identity.py`` diff against it.

:class:`ReferenceTrajectoryAnalyzer` is a sequential, non-incremental
:class:`TrajectoryAnalyzer`: validation, the NC seed, ``Smin``, the
fixed-point loop, ``tighten_smax`` and ``build_result`` are inherited.
The walk's tables (port members, rates, latencies, largest frames,
upstream ports and trees) are derived here from the network's VLs,
links and nodes, not taken from the product's precompute, so a wrong
float there shows as a difference; and
:meth:`~ReferenceTrajectoryAnalyzer.sweep_vls` is replaced.  Its walk
methods carry their own ``_ref_`` names so they never shadow the
product's.
"""

from __future__ import annotations

import math
from typing import Dict, List, Tuple

from repro.network.port import PortId
from repro.trajectory.analyzer import _EPS, TrajectoryAnalyzer, _flow_events
from repro.trajectory.busy_period import busy_period_bound, interference_count
from repro.trajectory.results import PrefixBound
from repro.trajectory.serialization import DEFAULT_SERIALIZATION
from repro.trajectory.timing import FlowPortKey

__all__ = ["ReferenceTrajectoryAnalyzer"]


class ReferenceTrajectoryAnalyzer(TrajectoryAnalyzer):
    """The reference walk behind the product's fixed-point driver."""

    def __init__(
        self,
        network,
        serialization=DEFAULT_SERIALIZATION,
        refine_smax: bool = True,
        max_refinements: int = 8,
        collect_stats: bool = False,
    ):
        super().__init__(
            network,
            serialization=serialization,
            refine_smax=refine_smax,
            max_refinements=max_refinements,
            collect_stats=collect_stats,
        )

    def _precompute_structure(self) -> None:
        """The walk's tables, read off the network's VLs, links and nodes.

        Replaces the product's precompute (and its per-VL source-port
        state): per port, the sorted names of the VLs crossing it, its
        link rate, its owner's latency and its largest frame's
        transmission time; per VL and port, the upstream port; per VL,
        the root port and the children of each port, in path order.
        """
        network = self.network
        members: Dict[PortId, List[str]] = {}
        self._upstream = {}
        self._trees = {}
        for name in sorted(network.virtual_links):
            paths = network.vl(name).paths
            children: Dict[PortId, List[PortId]] = {}
            for path in paths:
                parent = None
                for port in zip(path, path[1:]):
                    if (name, port) not in self._upstream:
                        self._upstream[(name, port)] = parent
                        members.setdefault(port, []).append(name)
                    if parent is not None:
                        siblings = children.setdefault(parent, [])
                        if port not in siblings:
                            siblings.append(port)
                    parent = port
            self._trees[name] = (
                (paths[0][0], paths[0][1]),
                {port: tuple(nexts) for port, nexts in children.items()},
            )
        self._port_vls = {port: tuple(names) for port, names in members.items()}
        self._port_rate = {port: network.link_rate(*port) for port in members}
        self._port_lat = {
            port: network.node(port[0]).technological_latency_us for port in members
        }
        self._port_max_c = {
            port: max(network.vl(m).s_max_bits / self._port_rate[port] for m in names)
            for port, names in members.items()
        }
        self._cache_counters = {}

    def sweep_vls(
        self, vl_names: List[str]
    ) -> Dict[FlowPortKey, PrefixBound]:
        """Walk the given VLs' trees once with the current ``Smax`` map."""
        if not self._prepared:
            raise RuntimeError("prepare() must run before sweep_vls()")
        bounds: Dict[FlowPortKey, PrefixBound] = {}
        for vl_name in vl_names:
            self._ref_walk_tree(vl_name, bounds)
        return bounds

    def _ref_discover_meetings(
        self,
        vl_name: str,
        port: PortId,
        competitors: Dict[object, Tuple[float, float, float]],
    ) -> Tuple[Tuple[str, ...], Tuple[str, ...], float]:
        """Which flows join the studied path at ``port``, and their credit.

        Returns ``(added, readded, serialization_gain)``.  ``added`` are
        flows met for the first time; ``readded`` are flows counted
        upstream that left the path and meet it again here (charged
        again in ``safe`` mode only).  The gain is computed from first
        meetings only.
        """
        parent = self._upstream[(vl_name, port)]
        added: List[str] = []
        readded: List[str] = []
        for other in self._port_vls[port]:
            if other == vl_name:
                continue
            if other not in competitors:
                added.append(other)
            elif parent is not None and (other, parent) not in self._upstream:
                # `other` was met upstream but does not cross the port we
                # arrived from: it left the path and is rejoining here.
                readded.append(other)

        mode = self.serialization_mode
        port_gain = 0.0
        if mode != "safe" and added:
            rate = self._port_rate[port]
            groups: Dict[PortId, List[float]] = {}
            for other in added:
                upstream = self._upstream[(other, port)]
                if upstream is None:
                    continue
                groups.setdefault(upstream, []).append(
                    self.network.vl(other).s_max_bits / rate
                )
            spans = [
                math.fsum(members) - max(members)
                for members in groups.values()
                if len(members) >= 2
            ]
            if spans:
                port_gain = math.fsum(spans) if mode == "paper" else max(spans)
        return tuple(added), tuple(readded), port_gain

    def _ref_walk_tree(
        self, vl_name: str, bounds: Dict[FlowPortKey, PrefixBound]
    ) -> None:
        """DFS one VL's tree, maintaining the interference state.

        State carried down the recursion (and rolled back on return):

        * ``competitors`` — ``{name: (C, T, A)}`` for every flow met so
          far (the studied flow included, with ``A = 0``; a re-met flow
          enters again under the synthetic key ``(name, port)``);
        * ``base_workload`` — ``sum_j N_j(0) C_j`` over that set;
        * ``events`` — candidate jump instants ``(t, C)`` inside the
          source busy period.
        """
        network = self.network
        vl = network.vl(vl_name)
        root, children = self._trees[vl_name]

        own_c = vl.s_max_bits / self._port_rate[root]
        competitors: Dict[object, Tuple[float, float, float]] = {
            vl_name: (own_c, vl.bag_us, 0.0)
        }
        safe = self.serialization_mode == "safe"

        # ---- root-level quantities -----------------------------------
        root_added: List[str] = []
        for other in self._port_vls[root]:
            if other == vl_name:
                continue
            competitors[other] = self._competitor_entry(vl_name, other, root)
            root_added.append(other)

        # every flow of an ES output port is sourced there: zero offsets
        rate = self._port_rate[root]
        horizon = busy_period_bound(
            [
                (network.vl(name).s_max_bits / rate, network.vl(name).bag_us, 0.0)
                for name in self._port_vls[root]
            ]
        )

        base_workload = 0.0
        events: List[Tuple[float, float]] = []

        def add_flow(entry: Tuple[float, float, float]) -> int:
            """Fold one flow into the workload state; return #events added."""
            nonlocal base_workload
            c, period, offset = entry
            base, flow_events = _flow_events(c, period, offset, horizon)
            base_workload += base
            events.extend(flow_events)
            return len(flow_events)

        def remove_flow(entry: Tuple[float, float, float]) -> None:
            nonlocal base_workload
            c, period, offset = entry
            base_workload -= interference_count(0.0, offset, period) * c

        add_flow(competitors[vl_name])
        for name in root_added:
            add_flow(competitors[name])

        # ---- recursive descent ---------------------------------------
        def visit(
            port: PortId,
            depth: int,
            transitions: float,
            latencies: float,
            gain: float,
            n_met: int,
        ) -> None:
            latencies += network.node(port[0]).technological_latency_us
            if depth > 0:
                transitions += self._port_max_c[port]

            port_gain = 0.0
            rollback: List[object] = []
            added_events = 0
            if depth > 0:
                added, readded, port_gain = self._ref_discover_meetings(
                    vl_name, port, competitors
                )
                for other in added:
                    entry = self._competitor_entry(vl_name, other, port)
                    competitors[other] = entry
                    rollback.append(other)
                    added_events += add_flow(entry)
                n_met += len(added)
                if safe:
                    # A re-met competitor's frames can overtake the
                    # studied packet on the off-path detour, so they may
                    # interfere again here.  Charge the re-meeting as an
                    # extra competitor (the first meeting's charge stays
                    # in place); synthetic keys keep the name-membership
                    # test in `_ref_discover_meetings` intact.
                    for other in readded:
                        entry = self._competitor_entry(vl_name, other, port)
                        remeet_key = (other, port)
                        competitors[remeet_key] = entry
                        rollback.append(remeet_key)
                        added_events += add_flow(entry)
                    n_met += len(readded)
            gain += port_gain

            constant = transitions + latencies - gain
            best, best_t, best_w, n_cand = self._ref_maximize(
                base_workload, events, constant
            )
            bounds[(vl_name, port)] = PrefixBound(
                total_us=best,
                critical_instant_us=best_t,
                busy_period_us=horizon,
                workload_us=best_w,
                transition_us=transitions,
                latency_us=latencies,
                serialization_gain_us=gain,
                n_competitors=n_met,
                n_candidates=n_cand,
            )

            for child in children.get(port, ()):
                visit(child, depth + 1, transitions, latencies, gain, n_met)

            # rollback this port's additions
            for entry_key in rollback:
                remove_flow(competitors.pop(entry_key))
            if added_events:
                del events[-added_events:]

        visit(root, 0, 0.0, 0.0, 0.0, len(root_added))

    @staticmethod
    def _ref_maximize(
        base_workload: float,
        events: List[Tuple[float, float]],
        constant: float,
    ) -> Tuple[float, float, float, int]:
        """Maximize ``W(t) + constant - t`` over every candidate instant.

        ``W(0) = base_workload``; each event ``(t, C)`` raises the
        workload by ``C`` at instant ``t``.  Between events the
        objective strictly decreases, so only ``t = 0`` and the event
        instants need evaluation.  Returns ``(best value, argmax t,
        workload at argmax, number of candidates)``.
        """
        best_value = base_workload + constant
        best_t = 0.0
        best_workload = base_workload
        n_candidates = 1
        if not events:
            return best_value, best_t, best_workload, n_candidates

        workload = base_workload
        idx = 0
        ordered = sorted(events)
        while idx < len(ordered):
            t = ordered[idx][0]
            while idx < len(ordered) and ordered[idx][0] <= t + _EPS:
                workload += ordered[idx][1]
                idx += 1
            n_candidates += 1
            value = workload + constant - t
            if value > best_value + _EPS:
                best_value = value
                best_t = t
                best_workload = workload
        return best_value, best_t, best_workload, n_candidates
