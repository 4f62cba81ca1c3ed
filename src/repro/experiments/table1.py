"""Table I — end-to-end delay bound comparison on the industrial network.

Paper values (proprietary Airbus configuration):

===========  ================  =========
             Trajectory/WCNC   Best/WCNC
Mean         10.46 %           10.77 %
Maximum      24.00 %           24.00 %
Minimum      -8.9 %            0 %
===========  ================  =========

with the Trajectory approach strictly tighter on ~91.5 % of VL paths.
This driver reproduces the same three rows on the synthetic industrial
configuration; expected shapes — positive mean around ten percent,
negative minimum for the Trajectory column, exactly 0 for the Best
column, Trajectory winning the large majority of paths.
"""

from __future__ import annotations

from typing import Optional

from repro.configs.industrial import IndustrialConfigSpec
from repro.experiments.runner import ExperimentResult, industrial_comparison, register

__all__ = ["run_table1"]


@register("table1")
def run_table1(spec: Optional[IndustrialConfigSpec] = None) -> ExperimentResult:
    """Reproduce Table I on the synthetic industrial configuration."""
    spec = spec if spec is not None else IndustrialConfigSpec()
    stats = industrial_comparison(spec).stats
    result = ExperimentResult(
        experiment_id="table1",
        title="end-to-end delay bound comparison on the industrial network",
        headers=("", "Trajectory/WCNC", "Best/WCNC"),
    )
    result.rows = [
        ("Mean", f"{stats.mean_benefit_trajectory_pct:.2f}%", f"{stats.mean_benefit_best_pct:.2f}%"),
        ("Maximum", f"{stats.max_benefit_trajectory_pct:.2f}%", f"{stats.max_benefit_best_pct:.2f}%"),
        ("Minimum", f"{stats.min_benefit_trajectory_pct:.2f}%", f"{stats.min_benefit_best_pct:.2f}%"),
    ]
    result.notes = [
        f"{stats.n_paths} VL paths analyzed "
        f"(paper: >6000 paths, ~1000 VLs)",
        f"Trajectory strictly tighter on {stats.trajectory_wins_share * 100:.1f}% "
        "of paths (paper: ~91.5%)",
        "paper reference values: mean 10.46%/10.77%, max 24%/24%, min -8.9%/0%",
    ]
    return result
