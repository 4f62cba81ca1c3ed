"""Pessimism evaluation of the combined bounds on the Fig. 1 network.

Runs the simulation scenario portfolio and reports how much of each
analytic bound is actually reachable — the tightness methodology of the
companion ECRTS 2006 work.
"""

from repro.configs.fig1 import fig1_network
from repro.core.combined import analyze_network
from repro.sim.search import evaluate_tightness


def test_tightness_fig1(benchmark):
    network = fig1_network()
    bounds = {k: p.best_us for k, p in analyze_network(network).paths.items()}

    report = benchmark.pedantic(
        lambda: evaluate_tightness(network, bounds, duration_ms=100, random_seeds=4),
        rounds=1,
        iterations=1,
    )
    assert report.violations() == []
    print(
        f"\ntightness on fig1: mean coverage {report.mean_coverage * 100:.1f}%, "
        f"min {report.min_coverage * 100:.1f}%, "
        f"{len(report.attained())} of {len(report.paths)} bounds attained"
    )
