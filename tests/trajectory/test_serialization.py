"""Serialization credits — including the optimism regression.

The 'paper' per-group credit reproduces the paper's Fig. 3 -> Fig. 4
improvement, but this library's simulation cross-check rediscovered that
it can undershoot the true worst case (consistent with the later
literature on the trajectory approach's serialization optimism).  The
scenario is kept here as a permanent regression artifact.
"""

import pytest

from repro.sim import TrafficScenario, simulate
from repro.trajectory import analyze_trajectory
from repro.trajectory.serialization import normalize_mode


class TestModeNormalization:
    # True once meant "windowed" and False "safe"; modes go by name
    def test_true_rejected(self):
        with pytest.raises(ValueError):
            normalize_mode(True)

    def test_false_rejected(self):
        with pytest.raises(ValueError):
            normalize_mode(False)

    def test_strings_pass_through(self):
        for mode in ("paper", "windowed", "safe"):
            assert normalize_mode(mode) == mode

    def test_garbage_rejected(self):
        with pytest.raises(ValueError):
            normalize_mode("turbo")


class TestFig34Reproduction:
    def test_gain_is_exactly_one_frame_time(self, fig2):
        plain = analyze_trajectory(fig2, serialization="safe")
        enhanced = analyze_trajectory(fig2, serialization="paper")
        frame_time = fig2.vl("v3").c_max_us(fig2.default_rate)
        assert plain.bound_us("v1") - enhanced.bound_us("v1") == pytest.approx(
            frame_time
        )

    def test_windowed_equals_paper_on_single_group(self, fig2):
        # only one serialized group ({v3, v4}) per port on this config
        paper = analyze_trajectory(fig2, serialization="paper")
        windowed = analyze_trajectory(fig2, serialization="windowed")
        for key in paper.paths:
            assert paper.paths[key].total_us == pytest.approx(
                windowed.paths[key].total_us
            )

    def test_v5_has_no_gain(self, fig2):
        # v5 shares no port with a serialized competitor group
        enhanced = analyze_trajectory(fig2, serialization="paper")
        assert enhanced.paths[("v5", 0)].serialization_gain_us == 0.0


class TestModeOrdering:
    def test_safe_dominates_windowed_dominates_paper(self, fig1):
        paper = analyze_trajectory(fig1, serialization="paper")
        windowed = analyze_trajectory(fig1, serialization="windowed")
        safe = analyze_trajectory(fig1, serialization="safe")
        for key in safe.paths:
            assert safe.paths[key].total_us >= windowed.paths[key].total_us - 1e-6
            assert windowed.paths[key].total_us >= paper.paths[key].total_us - 1e-6


class TestOptimismRegression:
    def test_paper_credit_is_optimistic_here(self, optimism_network):
        """Simulation exceeds the 'paper' bound — the documented flaw."""
        paper = analyze_trajectory(optimism_network, serialization="paper")
        observed = simulate(optimism_network, TrafficScenario(duration_ms=40))
        worst = observed.worst_observed()
        key = (worst.vl_name, worst.path_index)
        assert worst.max_us > paper.paths[key].total_us

    def test_safe_bound_holds_and_is_tight(self, optimism_network):
        safe = analyze_trajectory(optimism_network, serialization="safe")
        observed = simulate(optimism_network, TrafficScenario(duration_ms=40))
        for key, stats in observed.paths.items():
            assert stats.max_us <= safe.paths[key].total_us + 1e-6
        # the sound bound is attained exactly: 10 frames + latency + own
        worst = observed.worst_observed()
        assert worst.max_us == pytest.approx(456.0)
        assert safe.paths[(worst.vl_name, worst.path_index)].total_us == pytest.approx(
            456.0
        )
