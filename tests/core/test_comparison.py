"""Comparison statistics (Table I machinery)."""

import pytest

from repro.core import analyze_network, benefit_percent, group_mean_benefit, summarize
from repro.core.results import PathComparison


def make_path(name, nc, traj, bag=4.0):
    best = min(nc, traj)
    return PathComparison(
        vl_name=name,
        path_index=0,
        node_path=("a", "S", "d"),
        network_calculus_us=nc,
        trajectory_us=traj,
        best_us=best,
        benefit_trajectory_pct=benefit_percent(nc, traj),
        benefit_best_pct=benefit_percent(nc, best),
    )


class TestBenefitPercent:
    def test_positive_when_tighter(self):
        assert benefit_percent(200.0, 180.0) == pytest.approx(10.0)

    def test_negative_when_looser(self):
        assert benefit_percent(200.0, 220.0) == pytest.approx(-10.0)

    def test_zero_reference_rejected(self):
        with pytest.raises(ValueError):
            benefit_percent(0.0, 10.0)


class TestSummarize:
    def test_table1_statistics(self):
        paths = [
            make_path("a", 100.0, 90.0),   # +10%
            make_path("b", 100.0, 80.0),   # +20%
            make_path("c", 100.0, 110.0),  # -10%
        ]
        stats = summarize(paths)
        assert stats.n_paths == 3
        assert stats.mean_benefit_trajectory_pct == pytest.approx(20 / 3)
        assert stats.max_benefit_trajectory_pct == pytest.approx(20.0)
        assert stats.min_benefit_trajectory_pct == pytest.approx(-10.0)
        # the combined column: losses clamp to 0
        assert stats.min_benefit_best_pct == pytest.approx(0.0)
        assert stats.trajectory_wins_share == pytest.approx(2 / 3)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize([])

    def test_as_table_renders(self):
        stats = summarize([make_path("a", 100.0, 90.0)])
        text = stats.as_table()
        assert "Trajectory/WCNC" in text
        assert "Mean" in text and "Maximum" in text and "Minimum" in text


class TestGroupMeanBenefit:
    def test_grouping_by_callable(self):
        paths = [make_path("a", 100.0, 90.0), make_path("b", 100.0, 70.0)]
        groups = group_mean_benefit(
            type("R", (), {"paths": {i: p for i, p in enumerate(paths)}})(),
            key=lambda p: p.vl_name,
        )
        assert groups == {"a": pytest.approx(10.0), "b": pytest.approx(30.0)}

    def test_explicit_key_order(self):
        paths = {0: make_path("a", 100.0, 90.0)}
        holder = type("R", (), {"paths": paths})()
        assert group_mean_benefit(holder, key=lambda p: "g", keys=["g", "h"]) == {
            "g": pytest.approx(10.0)
        }


class TestCompareMethods:
    """The method comparison :func:`analyze_network` attaches."""

    def test_stats_attached(self, fig2):
        result = analyze_network(fig2)
        assert result.stats is not None
        assert result.stats.n_paths == 5

    def test_min_best_benefit_never_negative(self, fig1):
        result = analyze_network(fig1)
        assert result.stats.min_benefit_best_pct >= 0.0
