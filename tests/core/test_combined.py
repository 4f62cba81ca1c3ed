"""Combined approach: per-path minimum of both bounds."""

import pytest

from repro.core import analyze_network, build_comparison
from repro.netcalc import analyze_network_calculus
from repro.trajectory import analyze_trajectory


def test_best_is_min_of_both(fig2):
    result = analyze_network(fig2)
    for path in result.paths.values():
        assert path.best_us == pytest.approx(
            min(path.network_calculus_us, path.trajectory_us)
        )


def test_best_never_worse_than_either(fig1):
    result = analyze_network(fig1)
    for path in result.paths.values():
        assert path.best_us <= path.network_calculus_us + 1e-9
        assert path.best_us <= path.trajectory_us + 1e-9


def test_benefit_signs(fig1):
    result = analyze_network(fig1)
    for path in result.paths.values():
        assert path.benefit_best_pct >= -1e-9  # the combined bound never loses
        if path.trajectory_wins:
            assert path.benefit_trajectory_pct > 0


def test_mismatched_results_rejected(fig1, fig2):
    nc = analyze_network_calculus(fig2)
    trajectory = analyze_trajectory(fig1)
    with pytest.raises(ValueError, match="different VL paths"):
        build_comparison(nc, trajectory)


def test_flow_label(fig2):
    result = analyze_network(fig2)
    assert result.paths[("v1", 0)].flow == "v1[0]"


def test_best_accessor(fig2):
    result = analyze_network(fig2)
    assert result.best_us("v1") == result.paths[("v1", 0)].best_us


def test_path_list_ordering(fig1):
    result = analyze_network(fig1)
    listed = result.path_list()
    assert [(p.vl_name, p.path_index) for p in listed] == sorted(result.paths)
