"""Table I — full dual analysis of the industrial configuration.

Times one complete certification run: generate nothing (the cached
configuration is reused), analyze every VL path with Network Calculus
*and* the Trajectory approach, and aggregate the benefit statistics the
paper prints in Table I.
"""

from repro.core.combined import build_comparison
from repro.core.comparison import summarize
from repro.experiments.runner import industrial_config
from repro.experiments.table1 import run_table1
from repro.netcalc.analyzer import NetworkCalculusAnalyzer
from repro.trajectory.analyzer import TrajectoryAnalyzer


def test_table1_dual_analysis(benchmark, industrial_spec, persist):
    network = industrial_config(industrial_spec)

    def dual_analysis():
        nc = NetworkCalculusAnalyzer(network, grouping=True).analyze()
        trajectory = TrajectoryAnalyzer(network, serialization="windowed").analyze()
        comparison = build_comparison(nc, trajectory)
        return summarize(comparison.paths.values())

    stats = benchmark.pedantic(dual_analysis, rounds=1, iterations=1)

    # the combined column can never lose by construction
    assert stats.min_benefit_best_pct == 0.0
    if industrial_spec.n_virtual_links >= 1000:
        # the paper's Table I shape emerges at the published scale
        assert stats.mean_benefit_trajectory_pct > 0
        assert stats.trajectory_wins_share > 0.5

    persist(run_table1(spec=industrial_spec))
