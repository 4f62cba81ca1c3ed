"""Micro-benchmarks of the core substrates.

These keep the pytest-benchmark statistics meaningful (many rounds) and
catch performance regressions in the inner loops the full analyses are
built from.
"""

import random

from repro.configs.fig2 import fig2_network
from repro.netcalc.analyzer import NetworkCalculusAnalyzer
from repro.sim.scenarios import TrafficScenario, simulate
from repro.trajectory.analyzer import TrajectoryAnalyzer
from repro.trajectory.busy_period import busy_period_bound


def test_busy_period_speed(benchmark):
    rng = random.Random(2)
    flows = [
        (rng.uniform(5, 120), rng.choice([1000, 2000, 4000, 8000]), rng.uniform(0, 500))
        for _ in range(100)
    ]
    # keep utilization < 1
    utilization = sum(c / t for c, t, _ in flows)
    flows = [(c / (utilization * 1.3), t, a) for c, t, a in flows]
    value = benchmark(busy_period_bound, flows)
    assert value > 0


def test_netcalc_fig2_speed(benchmark):
    network = fig2_network()
    result = benchmark(lambda: NetworkCalculusAnalyzer(network).analyze())
    assert result.paths


def test_trajectory_fig2_speed(benchmark):
    network = fig2_network()
    result = benchmark(lambda: TrajectoryAnalyzer(network).analyze())
    assert result.paths


def test_simulator_throughput(benchmark):
    network = fig2_network()
    result = benchmark.pedantic(
        lambda: simulate(network, TrafficScenario(duration_ms=200)),
        rounds=3,
        iterations=1,
    )
    assert result.paths
