"""The combined approach: per-path best of both analyses.

Paper Sec. II-C: *"The combined approach keeps for each VL path the
best obtained by either trajectory or network calculus approach"* —
sound because each method independently produces a valid upper bound,
so their minimum is one too.

The computation is one pipeline: Network Calculus, then a trajectory
run seeded from it, then the per-path minimum.  :func:`run_analyses`
runs the two analyzers under one :class:`AnalysisOptions`, and
:func:`analyze_network` adds the per-path comparison; every command
and driver that combines the methods calls one of the two.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass
from typing import Tuple

from repro.core.comparison import summarize
from repro.core.results import AnalysisResult, PathComparison
from repro.netcalc.analyzer import analyze_network_calculus
from repro.netcalc.results import NetworkCalculusResult
from repro.network.topology import Network
from repro.trajectory.analyzer import analyze_trajectory
from repro.trajectory.results import TrajectoryResult
from repro.trajectory.serialization import DEFAULT_SERIALIZATION, normalize_mode

__all__ = ["AnalysisOptions", "analyze_network", "build_comparison", "run_analyses"]


@dataclass(frozen=True)
class AnalysisOptions:
    """What a combined analysis computes.

    ``grouping`` is the Network Calculus grouping technique,
    ``serialization`` the trajectory credit by name (see
    :mod:`repro.trajectory.serialization`; any other value raises
    :class:`ValueError`), and ``explain`` attaches bound provenance
    ledgers to both results (see :mod:`repro.explain`; the bounds are
    bit-identical either way).  How a run executes — cache, stats,
    progress — is not an option: it never changes a bound.
    """

    grouping: bool = True
    serialization: str = DEFAULT_SERIALIZATION
    explain: bool = False

    def __post_init__(self) -> None:
        normalize_mode(self.serialization)


def run_analyses(
    network: Network,
    options: AnalysisOptions = AnalysisOptions(),
    *,
    cache=None,
    collect_stats: bool = False,
    progress=None,
) -> Tuple[NetworkCalculusResult, TrajectoryResult]:
    """Run Network Calculus, then the trajectory analysis seeded from it.

    The trajectory run takes the NC result as its ``Smax`` seed when it
    is the default seed (grouping on), so the pipeline runs NC once.
    ``cache`` is a :class:`~repro.incremental.cache.BoundCache` serving
    whole results; ``collect_stats`` / ``progress`` are the
    observability hooks of both analyzers (see :mod:`repro.obs`).

    The cyclic garbage collector is paused for the call and resumed,
    if it was enabled, on return or raise.  An analysis creates no
    reference cycle, so reference counting alone frees what it drops;
    without the pause, the analyzers' long-lived memo tables trigger
    collector passes over the caller's whole heap.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        nc_result = analyze_network_calculus(
            network,
            grouping=options.grouping,
            collect_stats=collect_stats,
            progress=progress,
            cache=cache,
            explain=options.explain,
        )
        trajectory_result = analyze_trajectory(
            network,
            serialization=options.serialization,
            collect_stats=collect_stats,
            progress=progress,
            cache=cache,
            explain=options.explain,
            nc_result=nc_result,
        )
    finally:
        if enabled:
            gc.enable()
    return nc_result, trajectory_result


def build_comparison(
    nc_result: NetworkCalculusResult, trajectory_result: TrajectoryResult
) -> AnalysisResult:
    """Merge per-path bounds of the two methods into an :class:`AnalysisResult`.

    Both results must come from the same configuration (same path keys);
    a mismatch raises :class:`ValueError`.  The merged result keeps both
    as ``netcalc`` / ``trajectory``.
    """
    if set(nc_result.paths) != set(trajectory_result.paths):
        raise ValueError(
            "the two results cover different VL paths; "
            "run both analyses on the same configuration"
        )
    result = AnalysisResult(netcalc=nc_result, trajectory=trajectory_result)
    for key in sorted(nc_result.paths):
        nc_path = nc_result.paths[key]
        traj_path = trajectory_result.paths[key]
        nc_us = nc_path.total_us
        traj_us = traj_path.total_us
        best_us = min(nc_us, traj_us)
        result.paths[key] = PathComparison(
            vl_name=nc_path.vl_name,
            path_index=nc_path.path_index,
            node_path=nc_path.node_path,
            network_calculus_us=nc_us,
            trajectory_us=traj_us,
            best_us=best_us,
            benefit_trajectory_pct=100.0 * (nc_us - traj_us) / nc_us,
            benefit_best_pct=100.0 * (nc_us - best_us) / nc_us,
        )
    return result


def analyze_network(
    network: Network,
    options: AnalysisOptions = AnalysisOptions(),
    *,
    cache=None,
    collect_stats: bool = False,
    progress=None,
) -> AnalysisResult:
    """Run both methods on ``network`` and combine them per path.

    :func:`run_analyses` with the same arguments, merged by
    :func:`build_comparison`, with the paper's Table I statistics in
    ``result.stats`` (``result.stats.as_table()`` renders the three
    rows the paper prints; None for a network without paths).
    """
    result = build_comparison(
        *run_analyses(
            network,
            options,
            cache=cache,
            collect_stats=collect_stats,
            progress=progress,
        )
    )
    if result.paths:
        result.stats = summarize(result.paths.values())
    return result
