"""Pessimism / tightness evaluation."""

import pytest

from repro.core import analyze_network
from repro.sim import evaluate_tightness
from repro.trajectory import analyze_trajectory


@pytest.fixture
def report(fig2):
    bounds = {k: p.best_us for k, p in analyze_network(fig2).paths.items()}
    return evaluate_tightness(fig2, bounds, duration_ms=50, random_seeds=2)


def test_no_violations_for_sound_bounds(report):
    assert report.violations() == []


def test_coverage_between_zero_and_one(report):
    assert 0.0 < report.min_coverage <= report.mean_coverage <= 1.0


def test_some_fig2_bounds_attained(report):
    # the Fig. 2 trajectory bounds are exact on several paths
    assert report.attained()


def test_scenario_count(report):
    assert report.n_scenarios == 3


def test_scenario_label_recorded(report):
    assert all(p.scenario for p in report.paths.values())


def test_detects_optimistic_bounds(optimism_network):
    """The 'paper' trajectory credit is flagged as violated."""
    paper = analyze_trajectory(optimism_network, serialization="paper")
    bounds = {k: p.total_us for k, p in paper.paths.items()}
    report = evaluate_tightness(optimism_network, bounds, duration_ms=40, random_seeds=0)
    assert report.violations()


def test_missing_observations_rejected(fig2):
    bounds = {("ghost", 0): 100.0}
    with pytest.raises(ValueError, match="no frames observed"):
        evaluate_tightness(fig2, bounds, duration_ms=10, random_seeds=0)


def test_safe_trajectory_exact_on_optimism_config(optimism_network):
    safe = analyze_trajectory(optimism_network, serialization="safe")
    bounds = {k: p.total_us for k, p in safe.paths.items()}
    report = evaluate_tightness(
        optimism_network, bounds, duration_ms=40, random_seeds=0
    )
    assert not report.violations()
    assert any(p.coverage == pytest.approx(1.0) for p in report.paths.values())
