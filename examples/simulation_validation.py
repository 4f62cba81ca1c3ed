#!/usr/bin/env python
"""Validate analytic bounds against frame-level simulation.

The paper's bounds come from static analyses; this example provides the
matching dynamic evidence.  It simulates the Fig. 2 and Fig. 1
configurations under several traffic scenarios (synchronized worst-case
release, random offsets, sporadic emission) and checks that every
observed end-to-end delay stays below both analytic bounds — and shows
how *close* the worst observed delay comes to the Trajectory bound
(tightness witnesses: on Fig. 2 several paths attain it exactly).

It also demonstrates the serialization-optimism finding documented in
``repro.trajectory.serialization``: the historical 'paper' credit can
be undershot by an admissible scenario, while the 'safe' mode cannot.

Run with:  python examples/simulation_validation.py
"""

from repro.configs import fig1_network, fig2_network
from repro.core import AnalysisOptions, run_analyses
from repro.network import NetworkBuilder
from repro.sim import TrafficScenario, simulate
from repro.trajectory import analyze_trajectory

SCENARIOS = {
    "synchronized, saturated": TrafficScenario(duration_ms=100, synchronized=True),
    "random offsets": TrafficScenario(duration_ms=100, synchronized=False, seed=7),
    "sporadic, random sizes": TrafficScenario(
        duration_ms=100, periodic=False, max_size=False, seed=11
    ),
}


def validate(network):
    print(f"--- {network!r} ---")
    nc, trajectory = run_analyses(network, AnalysisOptions(serialization="safe"))
    for label, scenario in SCENARIOS.items():
        observed = simulate(network, scenario)
        violations = 0
        tightness = []
        for key, stats in observed.paths.items():
            bound = trajectory.paths[key].total_us
            if stats.max_us > bound + 1e-6 or stats.max_us > nc.paths[key].total_us + 1e-6:
                violations += 1
            tightness.append(stats.max_us / bound)
        print(
            f"  {label:<26} {len(observed.paths)} paths, "
            f"violations: {violations}, worst-case coverage "
            f"(observed/bound): max {max(tightness) * 100:.1f}%"
        )
    print()


def demonstrate_serialization_optimism():
    """The scenario where the paper's serialization credit undershoots."""
    builder = NetworkBuilder("optimism").switches("SW").end_systems("a", "b", "d")
    builder.link("a", "SW").link("b", "SW").link("SW", "d")
    for index in range(5):
        for source in ("a", "b"):
            builder.virtual_link(
                f"v{source}{index}", source=source, destinations=["d"],
                bag_ms=4, s_max_bytes=500, s_min_bytes=500,
            )
    network = builder.build()

    paper = analyze_trajectory(network, serialization="paper")
    safe = analyze_trajectory(network, serialization="safe")
    observed = simulate(network, TrafficScenario(duration_ms=40))

    worst = observed.worst_observed()
    key = (worst.vl_name, worst.path_index)
    print("--- serialization-optimism demonstration ---")
    print(f"  flow {worst.vl_name}: observed worst delay {worst.max_us:.1f} us")
    print(f"  'paper' credit bound:  {paper.paths[key].total_us:.1f} us "
          f"({'VIOLATED' if worst.max_us > paper.paths[key].total_us else 'holds'})")
    print(f"  'safe' bound:          {safe.paths[key].total_us:.1f} us "
          f"({'VIOLATED' if worst.max_us > safe.paths[key].total_us else 'holds'})")
    print(
        "  -> the historical per-group credit is optimistic here, as later\n"
        "     shown in the literature (see repro.trajectory.serialization)."
    )


def main():
    validate(fig2_network())
    validate(fig1_network())
    demonstrate_serialization_optimism()


if __name__ == "__main__":
    main()
