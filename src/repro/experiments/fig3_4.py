"""Figs. 3-4 — the worked Trajectory scenario on the sample configuration.

Sec. II-B computes the worst-case delay of v1 on the Fig. 2 network
with the plain Trajectory approach (Fig. 3) and with the serialization
enhancement (Fig. 4).  The plain scenario lets the frames of v3 and v4
hit S3 simultaneously although they share the S2->S3 link — impossible;
serializing them recovers exactly one maximal frame time (40 us at the
configuration's 500 B / 100 Mb/s).

This driver reports both bounds for every VL of the sample
configuration plus the per-path serialization gain, and checks the
40 us Fig. 3 -> Fig. 4 delta on v1.
"""

from __future__ import annotations

from repro.configs.fig2 import fig2_network
from repro.experiments.runner import ExperimentResult, register
from repro.trajectory.analyzer import analyze_trajectory

__all__ = ["run_fig3_4"]


@register("fig3_4")
def run_fig3_4() -> ExperimentResult:
    """Plain vs serialization-enhanced Trajectory bounds on Fig. 2."""
    network = fig2_network()
    plain = analyze_trajectory(network, serialization="safe")
    enhanced = analyze_trajectory(network, serialization="windowed")

    result = ExperimentResult(
        experiment_id="fig3_4",
        title="worked Trajectory scenario (plain vs serialization-enhanced)",
        headers=("VL", "plain (Fig.3) us", "enhanced (Fig.4) us", "gain us"),
    )
    for key in sorted(plain.paths):
        p = plain.paths[key].total_us
        e = enhanced.paths[key].total_us
        result.rows.append((key[0], p, e, p - e))

    v1_gain = plain.bound_us("v1") - enhanced.bound_us("v1")
    frame_time = network.vl("v1").c_max_us(network.default_rate)
    result.notes = [
        f"v1 gain = {v1_gain:.1f} us; one maximal frame time = {frame_time:.1f} us "
        "(the paper's Fig.3 -> Fig.4 improvement)",
    ]
    return result
