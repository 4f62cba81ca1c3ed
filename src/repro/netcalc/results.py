"""Result containers for the Network Calculus analysis."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

from repro.network.port import PortId

__all__ = ["PortAnalysis", "PathBound", "path_bound", "NetworkCalculusResult"]

FlowPathKey = Tuple[str, int]


@dataclass(frozen=True)
class PortAnalysis:
    """Worst-case figures for one output port.

    Attributes
    ----------
    port_id:
        The ``(owner, target)`` port.
    delay_us:
        FIFO delay bound (horizontal deviation) — applies to every
        frame crossing the port, queueing + transmission + latency.
    backlog_bits:
        Buffer bound (vertical deviation); sizing the output FIFO to at
        least this many bits guarantees no frame loss (Sec. II-B).
    utilization:
        Long-term utilization of the port.
    n_flows / n_groups:
        Number of VLs crossing the port and number of input-link groups
        they were aggregated into (``n_groups == n_flows`` when
        grouping is disabled or no link is shared).
    """

    port_id: PortId
    delay_us: float
    backlog_bits: float
    utilization: float
    n_flows: int
    n_groups: int


@dataclass(frozen=True)
class PathBound:
    """End-to-end delay bound for one VL path.

    ``total_us`` is the sum of the per-port delay bounds along the
    path's output ports, i.e. the bound from frame release at the
    source ES to complete reception by the destination ES.
    """

    vl_name: str
    path_index: int
    node_path: Tuple[str, ...]
    port_ids: Tuple[PortId, ...]
    per_port_delay_us: Tuple[float, ...]
    total_us: float


def path_bound(
    vl_name: str,
    path_index: int,
    node_path: Tuple[str, ...],
    port_ids: Tuple[PortId, ...],
    port_delay: Mapping[PortId, float],
) -> PathBound:
    """The bound of one path: its ports' delays and their ``math.fsum``.

    The analyzer builds every path this way, and the bound cache
    rebuilds stored paths the same way from the stored port delays.
    """
    delays = tuple([port_delay[pid] for pid in port_ids])
    return PathBound(vl_name, path_index, node_path, port_ids, delays, math.fsum(delays))


@dataclass
class NetworkCalculusResult:
    """Full outcome of a Network Calculus run.

    Attributes
    ----------
    grouping:
        Whether the grouping (serialization) technique was applied.
    frame_overhead_bytes:
        Per-frame wire overhead the analysis added to every ``s_max``.
        With ``grouping``, this tells whether the result is the
        trajectory analyzer's default ``Smax`` seed (grouping on,
        overhead 0).
    ports:
        Per-port analyses, keyed by port id.
    paths:
        Per-VL-path end-to-end bounds, keyed by ``(vl_name, path_index)``.
    stats:
        Observability snapshot (counters / timers / phase spans, see
        :mod:`repro.obs`) when the analysis ran with
        ``collect_stats=True``; None otherwise.
    provenance:
        Per-path bound :class:`~repro.obs.provenance.Decomposition`
        ledgers, keyed like ``paths``, when the analysis ran with
        ``explain=True``; None otherwise.  Never cached: always
        recomputed from the (possibly cache-served) result.
    """

    grouping: bool
    frame_overhead_bytes: float = 0.0
    ports: Dict[PortId, PortAnalysis] = field(default_factory=dict)
    paths: Dict[FlowPathKey, PathBound] = field(default_factory=dict)
    stats: Optional[Dict[str, object]] = None
    provenance: Optional[Dict[FlowPathKey, object]] = None

    def bound_us(self, vl_name: str, path_index: int = 0) -> float:
        """End-to-end bound of one VL path, in microseconds."""
        return self.paths[(vl_name, path_index)].total_us

    def path_bounds(self) -> List[PathBound]:
        """All path bounds, in deterministic (vl, index) order."""
        return [self.paths[key] for key in sorted(self.paths)]

    def worst_path(self) -> PathBound:
        """The path with the largest end-to-end bound."""
        if not self.paths:
            raise ValueError("result contains no paths")
        return max(self.paths.values(), key=lambda p: p.total_us)

    def total_buffer_bits(self) -> float:
        """Sum of all port backlog bounds (network-wide buffer budget)."""
        return math.fsum(p.backlog_bits for p in self.ports.values())
