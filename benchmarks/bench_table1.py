"""Table I — full dual analysis of the industrial configuration.

Times one complete certification run: generate nothing (the cached
configuration is reused), analyze every VL path with Network Calculus
*and* the Trajectory approach, and aggregate the benefit statistics the
paper prints in Table I.
"""

from repro.core.combined import AnalysisOptions, analyze_network
from repro.experiments.runner import industrial_config
from repro.experiments.table1 import run_table1


def test_table1_dual_analysis(benchmark, industrial_spec, persist):
    network = industrial_config(industrial_spec)

    def dual_analysis():
        # as `afdx experiment table1` runs it: one NC run, which also
        # seeds the trajectory analysis
        options = AnalysisOptions(serialization="windowed")
        return analyze_network(network, options).stats

    stats = benchmark.pedantic(dual_analysis, rounds=1, iterations=1)

    # the combined column can never lose by construction
    assert stats.min_benefit_best_pct == 0.0
    if industrial_spec.n_virtual_links >= 1000:
        # the paper's Table I shape emerges at the published scale
        assert stats.mean_benefit_trajectory_pct > 0
        assert stats.trajectory_wins_share > 0.5

    persist(run_table1(spec=industrial_spec))
