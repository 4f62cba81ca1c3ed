"""Fig. 5 — mean Trajectory benefit per BAG value.

The paper plots, for every BAG value of the industrial configuration
(harmonic, 1..128 ms), the average benefit of the Trajectory approach
over Network Calculus across the VL paths with that BAG, and observes
that the benefit globally increases when the BAG decreases (short-BAG
VLs load the network more, and the Trajectory approach tolerates load
better).
"""

from __future__ import annotations

import math
from typing import Optional

from repro.configs.industrial import IndustrialConfigSpec
from repro.experiments.runner import ExperimentResult, industrial_comparison, industrial_config, register

__all__ = ["run_fig5"]


@register("fig5")
def run_fig5(spec: Optional[IndustrialConfigSpec] = None) -> ExperimentResult:
    """Mean Trajectory-over-WCNC benefit for each BAG value."""
    spec = spec if spec is not None else IndustrialConfigSpec()
    network = industrial_config(spec)
    comparison = industrial_comparison(spec)

    buckets = {}
    for path in comparison.paths.values():
        bag = network.vl(path.vl_name).bag_ms
        buckets.setdefault(bag, []).append(path.benefit_trajectory_pct)

    result = ExperimentResult(
        experiment_id="fig5",
        title="mean Trajectory benefit over WCNC per BAG value",
        headers=("BAG (ms)", "mean benefit (%)", "n paths"),
    )
    for bag in sorted(buckets):
        values = buckets[bag]
        result.rows.append((bag, math.fsum(values) / len(values), len(values)))
    result.notes = [
        "paper shape: benefit increases as the BAG decreases "
        "(~9% at 128 ms up to ~14% at the shortest BAGs)",
    ]
    return result
