"""Result containers for the Trajectory analysis."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Tuple

from repro.network.port import PortId

__all__ = ["PrefixBound", "TrajectoryPathBound", "TrajectoryResult"]

FlowPathKey = Tuple[str, int]


class PrefixBound(NamedTuple):
    """One sweep's bound of a VL's tree prefix ending at one port.

    A sweep emits one per ``(vl_name, port)`` of every walked tree;
    ``tighten_smax`` and the cost ledger read them, and
    :meth:`~repro.trajectory.analyzer.TrajectoryAnalyzer.build_result`
    turns the last port's record of each path into its
    :class:`TrajectoryPathBound`.  The fields mean what they mean there.
    """

    total_us: float
    critical_instant_us: float
    busy_period_us: float
    workload_us: float
    transition_us: float
    latency_us: float
    serialization_gain_us: float
    n_competitors: int
    n_candidates: int


@dataclass(frozen=True)
class TrajectoryPathBound:
    """End-to-end Trajectory bound for one VL path, with diagnostics.

    Attributes
    ----------
    total_us:
        The worst-case end-to-end delay bound.
    critical_instant_us:
        The release offset ``t`` (within the source-port busy period)
        that realised the maximum — 0 in most simple configurations.
    busy_period_us:
        Length bound of the source-port busy period (the range the
        candidate release times were drawn from).
    workload_us / transition_us / latency_us / serialization_gain_us:
        Decomposition of the bound: competing-frame workload, the
        per-transition "counted twice" terms, technological latencies,
        and the amount removed by input-link serialization.
    n_competitors / n_candidates:
        Number of competing VLs considered and of candidate release
        times evaluated.
    """

    vl_name: str
    path_index: int
    node_path: Tuple[str, ...]
    port_ids: Tuple[PortId, ...]
    total_us: float
    critical_instant_us: float
    busy_period_us: float
    workload_us: float
    transition_us: float
    latency_us: float
    serialization_gain_us: float
    n_competitors: int
    n_candidates: int


@dataclass
class TrajectoryResult:
    """Full outcome of a Trajectory run.

    Attributes
    ----------
    serialization:
        Serialization mode used: ``"paper"`` (the historical credit of
        the DATE 2010 tool) or ``"safe"`` (plain sound analysis).
    refinement_iterations:
        Number of ``Smax`` fixed-point sweeps actually performed.
    paths:
        Per-VL-path bounds, keyed by ``(vl_name, path_index)``.
    stats:
        Observability snapshot (counters / timers / phase spans plus
        the ``sweeps`` convergence trace, see :mod:`repro.obs`) when
        the analysis ran with ``collect_stats=True``; None otherwise.
    provenance:
        Per-path bound :class:`~repro.obs.provenance.Decomposition`
        ledgers, keyed like ``paths``, when the analysis ran with
        ``explain=True``; None otherwise.  Never cached: always
        recomputed from a live fixed-point run.
    """

    serialization: str
    refinement_iterations: int = 0
    paths: Dict[FlowPathKey, TrajectoryPathBound] = field(default_factory=dict)
    stats: Optional[Dict[str, object]] = None
    provenance: Optional[Dict[FlowPathKey, object]] = None

    def bound_us(self, vl_name: str, path_index: int = 0) -> float:
        """End-to-end bound of one VL path, in microseconds."""
        return self.paths[(vl_name, path_index)].total_us

    def path_bounds(self) -> List[TrajectoryPathBound]:
        """All path bounds, in deterministic (vl, index) order."""
        return [self.paths[key] for key in sorted(self.paths)]

    def worst_path(self) -> TrajectoryPathBound:
        """The path with the largest end-to-end bound."""
        if not self.paths:
            raise ValueError("result contains no paths")
        return max(self.paths.values(), key=lambda p: p.total_us)
