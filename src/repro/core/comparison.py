"""Aggregate comparison statistics (the paper's Table I and figure data).

The paper reports benefits as percentages relative to the Network
Calculus bound: ``100 * (WCNC - other) / WCNC``.  Positive values mean
the other method is tighter.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Iterable, List, Optional, Sequence

from repro.core.results import AnalysisResult, ComparisonStats, PathComparison

__all__ = ["benefit_percent", "summarize", "group_mean_benefit"]


def benefit_percent(reference_us: float, other_us: float) -> float:
    """Relative improvement of ``other`` over ``reference`` in percent."""
    if reference_us <= 0:
        raise ValueError(f"reference bound must be positive, got {reference_us}")
    return 100.0 * (reference_us - other_us) / reference_us


def summarize(paths: Iterable[PathComparison]) -> ComparisonStats:
    """Reduce per-path comparisons to the paper's Table I statistics."""
    entries = list(paths)
    if not entries:
        raise ValueError("cannot summarize an empty set of path comparisons")
    traj = [p.benefit_trajectory_pct for p in entries]
    best = [p.benefit_best_pct for p in entries]
    wins = sum(1 for p in entries if p.trajectory_wins)
    return ComparisonStats(
        n_paths=len(entries),
        mean_benefit_trajectory_pct=math.fsum(traj) / len(traj),
        max_benefit_trajectory_pct=max(traj),
        min_benefit_trajectory_pct=min(traj),
        mean_benefit_best_pct=math.fsum(best) / len(best),
        max_benefit_best_pct=max(best),
        min_benefit_best_pct=min(best),
        trajectory_wins_share=wins / len(entries),
    )


def group_mean_benefit(
    result: AnalysisResult,
    key: Callable[[PathComparison], object],
    keys: Optional[Sequence[object]] = None,
) -> Dict[object, float]:
    """Mean Trajectory benefit per group of VL paths.

    ``key`` maps a path comparison to its group (e.g. the VL's BAG for
    Fig. 5 or its ``s_max`` for Fig. 6).  When ``keys`` is given, the
    output contains exactly those groups (missing ones are skipped).
    """
    buckets: Dict[object, List[float]] = {}
    for path in result.paths.values():
        buckets.setdefault(key(path), []).append(path.benefit_trajectory_pct)
    means = {group: math.fsum(vals) / len(vals) for group, vals in buckets.items()}
    if keys is not None:
        return {group: means[group] for group in keys if group in means}
    return means
