"""Fig. 6 — share of VL paths where WCNC beats the Trajectory approach.

The paper bins the industrial configuration's VL paths by ``s_max`` and
plots the percentage of paths, per bin, for which the Network Calculus
bound is at least as tight as the Trajectory bound.  Observed shape:
the Trajectory approach always wins for ``s_max >= ~900 B``, and the
WCNC share grows as ``s_max`` shrinks — small frames suffer from the
Trajectory approach's "frame counted twice" term, which is bounded by
the *largest* frame met at each node (Sec. III-B-1).
"""

from __future__ import annotations

from typing import Optional

from repro.configs.industrial import IndustrialConfigSpec
from repro.experiments.runner import ExperimentResult, industrial_comparison, industrial_config, register

__all__ = ["run_fig6"]

_BIN_BYTES = 150


@register("fig6")
def run_fig6(
    spec: Optional[IndustrialConfigSpec] = None,
    bin_bytes: int = _BIN_BYTES,
) -> ExperimentResult:
    """Percentage of paths per s_max bin where WCNC is at least as tight."""
    spec = spec if spec is not None else IndustrialConfigSpec()
    network = industrial_config(spec)
    comparison = industrial_comparison(spec)

    wins = {}
    totals = {}
    for path in comparison.paths.values():
        s_max = network.vl(path.vl_name).s_max_bytes
        bucket = int(s_max // bin_bytes) * bin_bytes
        totals[bucket] = totals.get(bucket, 0) + 1
        if path.benefit_trajectory_pct <= 0:
            wins[bucket] = wins.get(bucket, 0) + 1

    result = ExperimentResult(
        experiment_id="fig6",
        title="share of VL paths where WCNC outperforms the Trajectory approach",
        headers=("s_max bin (B)", "WCNC wins (%)", "n paths"),
    )
    for bucket in sorted(totals):
        share = 100.0 * wins.get(bucket, 0) / totals[bucket]
        result.rows.append((f"{bucket}-{bucket + bin_bytes - 1}", share, totals[bucket]))
    result.notes = [
        "paper shape: WCNC share decreases with s_max and reaches 0 above ~900 B",
    ]
    return result
