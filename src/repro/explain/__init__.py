"""Bound provenance: explain *why* each worst-case bound is what it is.

The package decomposes every reported end-to-end bound into the additive
terms of the underlying method (:mod:`repro.explain.netcalc`,
:mod:`repro.explain.trajectory`), each ledger summing to its bound
bit-exactly (:mod:`repro.obs.provenance`), aligns the two ledgers per
path to name the mechanism driving the NC<->trajectory gap
(:mod:`repro.explain.attribution`), and renders the whole explanation
as text, JSON or HTML (:mod:`repro.explain.report` — the ``afdx
explain`` subcommand).

Entry point: :func:`explain_network`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.core.results import AnalysisResult
from repro.explain.attribution import (
    ExplanationSummary,
    PathAttribution,
    attribute_paths,
    summarize_attributions,
)
from repro.explain.report import FORMATS, render_explanation
from repro.netcalc.results import NetworkCalculusResult
from repro.network.topology import Network
from repro.trajectory.results import TrajectoryResult

__all__ = [
    "Explanation",
    "explain_network",
    "render_explanation",
    "FORMATS",
]


@dataclass
class Explanation:
    """Everything ``afdx explain`` knows about one configuration.

    ``netcalc.provenance`` / ``trajectory.provenance`` hold the
    per-path :class:`~repro.obs.provenance.Decomposition` ledgers;
    ``attributions`` the per-path cross-method gap attributions;
    ``summary`` the aggregate winner/dominant-term/conservation view.
    """

    network: Network
    comparison: AnalysisResult
    netcalc: NetworkCalculusResult
    trajectory: TrajectoryResult
    attributions: Dict[Tuple[str, int], PathAttribution]
    summary: ExplanationSummary


def explain_network(
    network: Network,
    grouping: bool = True,
    serialization: object = True,
    refine_smax: bool = True,
    cache_dir: Optional[str] = None,
    collect_stats: bool = False,
    progress=None,
) -> Explanation:
    """Run both analyses with provenance recording and attribute gaps.

    Mirrors the combined CLI analysis (same analyzers, same seeding, so
    the bounds are bit-identical to an unexplained ``afdx analyze``
    run) and is deterministic across cold vs ``cache_dir``-warmed
    incremental runs.
    """
    from repro.core.combined import build_comparison
    from repro.netcalc.analyzer import analyze_network_calculus
    from repro.trajectory.analyzer import analyze_trajectory

    cache = None
    if cache_dir is not None:
        from repro.incremental.cache import BoundCache

        cache = BoundCache(cache_dir=cache_dir)
    nc_result = analyze_network_calculus(
        network,
        grouping=grouping,
        collect_stats=collect_stats,
        progress=progress,
        cache=cache,
        explain=True,
    )
    trajectory_result = analyze_trajectory(
        network,
        serialization=serialization,
        refine_smax=refine_smax,
        collect_stats=collect_stats,
        progress=progress,
        cache=cache,
        explain=True,
        nc_result=nc_result,
    )
    comparison = build_comparison(nc_result, trajectory_result)
    assert nc_result.provenance is not None
    assert trajectory_result.provenance is not None
    attributions = attribute_paths(
        nc_result.provenance, trajectory_result.provenance
    )
    summary = summarize_attributions(
        attributions, (nc_result.provenance, trajectory_result.provenance)
    )
    return Explanation(
        network=network,
        comparison=comparison,
        netcalc=nc_result,
        trajectory=trajectory_result,
        attributions=attributions,
        summary=summary,
    )
