"""Feed-forward Network Calculus propagation over output ports.

The analysis follows the certification methodology referenced by the
paper (Grieu; Frances, Fraboul & Grieu; Charara et al.):

1. validate the configuration and order the used output ports
   topologically (static AFDX routing is feed-forward);
2. give every VL its ingress leaky bucket
   ``(burst = s_max, rate = s_max / BAG)`` at its source ES port;
3. at each port, fold the flows of every input-link group into one
   ``(rate, burst)`` pair, capped by the link's shaping curve when
   grouping is enabled, and bound the FIFO delay and backlog by the
   horizontal and vertical deviations of the groups' sum against the
   port's rate-latency service curve (the flat-float port kernel,
   :mod:`repro.netcalc.kernel`, bit for bit the curve algebra's
   result);
4. propagate each flow downstream with its burst inflated by the local
   delay bound (``b <- b + r * D``);
5. the end-to-end bound of a VL path is the sum of its per-port delay
   bounds.

Step 4 is the holistic-pessimism mechanism the paper discusses: the
inflation ``r * D`` grows when BAG shrinks, which is why NC bounds
degrade for small BAGs (Fig. 8) while the Trajectory approach does not.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

from repro.errors import UnstableNetworkError
from repro.netcalc.grouping import is_source_key, member_groups
from repro.netcalc.kernel import Group, port_bounds
from repro.netcalc.results import NetworkCalculusResult, PortAnalysis, path_bound
from repro.network.port import PortId
from repro.network.port_graph import topological_port_order
from repro.network.preflight import check_network
from repro.network.topology import Network
from repro.obs.costmodel import netcalc_cost_ledger
from repro.obs.instrument import Instrumentation
from repro.obs.logging import get_logger, kv

__all__ = ["NetworkCalculusAnalyzer", "analyze_network_calculus"]

_LOG = get_logger("netcalc")


class NetworkCalculusAnalyzer:
    """Computes WCNC end-to-end delay bounds for every VL path.

    Parameters
    ----------
    network:
        The configuration to analyze (not mutated).
    grouping:
        Apply the input-link grouping technique (default True, matching
        the tool used in the paper).
    frame_overhead_bytes:
        Extra per-frame wire bytes (preamble + IFG) to add on top of
        ``s_max``; the paper works with bare Ethernet frame sizes, so
        the default is 0.
    collect_stats:
        Record per-phase spans, counters and timers (:mod:`repro.obs`)
        and attach them to the result's ``stats`` field.  Off by
        default: the uninstrumented run is bit-identical to the
        pre-observability analyzer.
    progress:
        Optional ``callable(phase, done, total)`` invoked during the
        port propagation of large configurations.
    incremental:
        Serve the whole result from a content-addressed
        :class:`~repro.incremental.cache.BoundCache` keyed by
        :meth:`result_fingerprint`.  A hit is bit-identical to
        recomputation by construction — the fingerprint covers the
        whole network and every analyzer parameter — so results are
        unchanged; only a configuration analyzed before gets faster.
    cache:
        The cache to use when ``incremental`` (shared by the
        :class:`~repro.incremental.delta.DeltaAnalyzer` across edits
        and analyzers); defaults to the process-wide cache.  Passing a
        cache implies ``incremental=True``.
    explain:
        Attach per-path bound provenance ledgers
        (:func:`repro.explain.netcalc.netcalc_provenance`) to the
        result.  The bounds themselves are bit-identical either way:
        NC provenance is recomputed post hoc from the finished result —
        including cache-served results, so it is never stale.
    """

    def __init__(
        self,
        network: Network,
        grouping: bool = True,
        frame_overhead_bytes: float = 0.0,
        collect_stats: bool = False,
        progress=None,
        incremental: bool = False,
        cache=None,
        explain: bool = False,
    ):
        if frame_overhead_bytes < 0:
            raise ValueError(f"frame overhead must be >= 0, got {frame_overhead_bytes}")
        self.network = network
        self.grouping = grouping
        self.frame_overhead_bytes = frame_overhead_bytes
        self.frame_overhead_bits = frame_overhead_bytes * 8.0
        self.incremental = incremental or cache is not None
        self.explain = explain
        self._cache = cache
        self._result_fp: Optional[str] = None
        self._obs = Instrumentation.create(collect_stats, progress)
        self._result: "NetworkCalculusResult | None" = None

    def _resolve_cache(self):
        """The bound cache, or None when not incremental (lazy import)."""
        if not self.incremental:
            return None
        if self._cache is None:
            from repro.incremental.cache import default_cache

            self._cache = default_cache()
        return self._cache

    def result_fingerprint(self) -> str:
        """Digest of the whole analysis' inputs (network + parameters)."""
        if self._result_fp is None:
            from repro.incremental.fingerprint import network_fingerprint, stable_digest

            self._result_fp = stable_digest(
                "ncresult",
                network_fingerprint(self.network),
                self.grouping,
                self.frame_overhead_bits,
            )
        return self._result_fp

    def cached_result(self) -> Optional[NetworkCalculusResult]:
        """The whole result from the bound cache, or None on a miss.

        A hit is a shallow copy (callers may attach stats without
        touching the cached object) carrying the stats and provenance a
        computed run would attach.  An entry whose path keys differ
        from the network's is stale and counts as a miss; the caller
        recomputes and overwrites it.  Always None when not incremental.
        """
        cache = self._resolve_cache()
        if cache is None:
            return None
        obs = self._obs
        with obs.tracer.span("netcalc.result_probe"):
            cached = cache.get("nc.result", self.result_fingerprint())
        if cached is None:
            return None
        if cached.paths.keys() != self.network.path_keys():
            cache.reject("nc.result", self.result_fingerprint())
            return None
        result = NetworkCalculusResult(
            grouping=cached.grouping,
            frame_overhead_bytes=self.frame_overhead_bytes,
            ports=dict(cached.ports),
            paths=dict(cached.paths),
        )
        if obs.enabled:
            obs.metrics.counter("netcalc.result_cache_hit", 1)
            # the ledger is a pure function of the (cached) result, so
            # cache-served runs get identical deterministic sections for
            # free; the hit itself is an explicit cache entry
            ledger = netcalc_cost_ledger(result)
            ledger.record_cache("result", 1, 0)
            stats = obs.export()
            stats["cost"] = ledger.to_dict()
            result.stats = stats
        _LOG.debug("netcalc result cache hit %s", kv(paths=len(result.paths)))
        if self.explain:
            with obs.tracer.span("netcalc.explain"):
                self._attach_provenance(result)
        return result

    def store_result(self, result: NetworkCalculusResult) -> bool:
        """Put a computed result into the bound cache.

        Stored without stats or provenance: both are per-run.  Returns
        False, storing nothing, when not incremental.
        """
        cache = self._resolve_cache()
        if cache is None:
            return False
        cache.put(
            "nc.result",
            self.result_fingerprint(),
            NetworkCalculusResult(
                grouping=result.grouping,
                ports=dict(result.ports),
                paths=dict(result.paths),
            ),
        )
        return True

    # ------------------------------------------------------------------

    def finalize_paths(
        self,
        result: NetworkCalculusResult,
        port_delay: Dict[PortId, float],
    ) -> None:
        """Fill ``result.paths`` by summing per-port delays along each path.

        A path's ports are the routing table's interned prefix of its
        last port: on a tree, the one prefix that ends there.
        """
        prefixes = self.network.routing_table().prefixes
        for vl_name, path_index, node_path in self.network.flow_paths():
            port_ids = prefixes[(vl_name, (node_path[-2], node_path[-1]))]
            result.paths[(vl_name, path_index)] = path_bound(
                vl_name, path_index, node_path, port_ids, port_delay
            )

    def analyze(self) -> NetworkCalculusResult:
        """Run the full propagation and return (and cache) the result."""
        if self._result is None:
            result = self.cached_result()
            self._result = result if result is not None else self._propagate()
        return self._result

    def _ingress(
        self,
    ) -> Tuple[Dict[str, float], Dict[str, float], Dict[Tuple[str, PortId], float]]:
        """Every flow's frame size, rate, and burst at its source ES port.

        Each VL enters as the leaky bucket ``(burst = s_max, rate =
        s_max / BAG)``, frame overhead included.  The rate never
        changes downstream; the burst map ``(flow, port) -> burst when
        entering that port's queue`` grows one analyzed port at a time.
        The frame sizes (``s_max``, no overhead) size the grouping's
        shaping curves.
        """
        overhead = self.frame_overhead_bits
        frames: Dict[str, float] = {}
        rates: Dict[str, float] = {}
        bursts: Dict[Tuple[str, PortId], float] = {}
        for name, vl in self.network.virtual_links.items():
            frames[name] = vl.s_max_bits
            burst = vl.s_max_bits + overhead
            rates[name] = burst / vl.bag_us
            bursts[(name, (vl.source, vl.paths[0][1]))] = burst
        return frames, rates, bursts

    def _port_groups(
        self,
        port_id: PortId,
        frames: Dict[str, float],
        rates: Dict[str, float],
        bursts: Dict[Tuple[str, PortId], float],
    ) -> List[Group]:
        """The port's input-link groups as :func:`port_bounds` takes them.

        In sorted key order, each group's bursts and rates summed one
        after the other in sorted-name order, with its shaping curve,
        as :func:`~repro.netcalc.grouping.group_arrival_curve` builds
        them.
        """
        network = self.network
        by_key = member_groups(network, port_id)
        groups: List[Group] = []
        for key in sorted(by_key):
            members = by_key[key]
            burst = 0.0
            rate = 0.0
            for name in members:
                # repro-lint: allow[REPRO102] the sequential sum add_curves folds per member, kept bit for bit
                burst += bursts[(name, port_id)]
                # repro-lint: allow[REPRO102] the sequential sum add_curves folds per member, kept bit for bit
                rate += rates[name]
            shaping = None
            if self.grouping and not is_source_key(key):
                biggest_frame = max(map(frames.__getitem__, members))
                shaping = (network.link_rate(*key), float(biggest_frame))
            groups.append((rate, burst, shaping))
        return groups

    def _propagate(self) -> NetworkCalculusResult:
        network = self.network
        obs = self._obs
        with obs.tracer.span("netcalc.validate"):
            check_network(network)
        with obs.tracer.span("netcalc.toposort"):
            order = topological_port_order(network)
        obs.metrics.gauge("netcalc.ports", len(order))

        frames, rates, bursts = self._ingress()
        result = NetworkCalculusResult(
            grouping=self.grouping, frame_overhead_bytes=self.frame_overhead_bytes
        )
        port_delay: Dict[PortId, float] = {}

        collect = obs.enabled
        progress = obs.progress
        propagation_span = obs.tracer.span(
            "netcalc.propagate", n_ports=len(order), grouping=self.grouping
        )
        flows_propagated = 0
        table = network.routing_table()
        members = table.members
        next_ports = table.next_ports
        with propagation_span:
            for index, port_id in enumerate(order):
                if progress:
                    progress.update("netcalc.propagate", index, len(order))
                names = members[port_id]
                groups = self._port_groups(port_id, frames, rates, bursts)
                port = network.output_port(*port_id)
                delay, backlog, arrival_rate = port_bounds(
                    groups, port.rate_bits_per_us, port.latency_us
                )
                if math.isinf(delay):
                    raise UnstableNetworkError(
                        f"no finite delay bound at port {port}: aggregate long-term rate "
                        f"{arrival_rate:.3f} bits/us exceeds the link rate "
                        f"{port.rate_bits_per_us:.3f}"
                    )
                port_delay[port_id] = delay
                result.ports[port_id] = PortAnalysis(
                    port_id=port_id,
                    delay_us=delay,
                    backlog_bits=backlog,
                    utilization=network.port_utilization(port_id),
                    n_flows=len(names),
                    n_groups=len(groups),
                )
                # propagate every flow to its next port(s): b <- b + r * D
                for name in names:
                    targets = next_ports[(name, port_id)]
                    if targets:
                        inflated = bursts[(name, port_id)] + rates[name] * delay
                        for pid in targets:
                            bursts[(name, pid)] = inflated
                if collect:
                    flows_propagated += len(names)
            if progress:
                progress.update("netcalc.propagate", len(order), len(order))

        if collect:
            obs.metrics.counter("netcalc.ports_analyzed", len(order))
            obs.metrics.counter("netcalc.flow_propagations", flows_propagated)
            obs.metrics.gauge(
                "netcalc.groups",
                # repro-lint: allow[REPRO101] integer group counts; exact in floats
                sum(analysis.n_groups for analysis in result.ports.values()),
            )

        with obs.tracer.span("netcalc.paths"):
            self.finalize_paths(result, port_delay)
        stored = self.store_result(result)
        if self.explain:
            with obs.tracer.span("netcalc.explain"):
                self._attach_provenance(result)
        if collect:
            obs.metrics.counter("netcalc.paths_bound", len(result.paths))
            ledger = netcalc_cost_ledger(result)
            if stored:
                ledger.record_cache("result", 0, 1)
            stats = obs.export()
            stats["cost"] = ledger.to_dict()
            result.stats = stats
        _LOG.debug(
            "netcalc done %s",
            kv(ports=len(order), paths=len(result.paths), grouping=self.grouping),
        )
        return result

    def _attach_provenance(self, result: NetworkCalculusResult) -> None:
        """Recompute and attach the per-path provenance ledgers.

        Lazy import: the explain layer costs nothing unless requested.
        """
        from repro.explain.netcalc import netcalc_provenance

        result.provenance = netcalc_provenance(self, result)


def analyze_network_calculus(
    network: Network,
    grouping: bool = True,
    frame_overhead_bytes: float = 0.0,
    collect_stats: bool = False,
    progress=None,
    incremental: bool = False,
    cache=None,
    explain: bool = False,
) -> NetworkCalculusResult:
    """One-shot convenience wrapper around :class:`NetworkCalculusAnalyzer`."""
    return NetworkCalculusAnalyzer(
        network,
        grouping=grouping,
        frame_overhead_bytes=frame_overhead_bytes,
        collect_stats=collect_stats,
        progress=progress,
        incremental=incremental,
        cache=cache,
        explain=explain,
    ).analyze()
