"""Trajectory provenance: conservation across every analyzer mode."""

import math

import pytest

from repro.trajectory.analyzer import analyze_trajectory


def assert_all_conserve(result):
    assert result.provenance is not None
    assert set(result.provenance) == set(result.paths)
    for key, decomposition in result.provenance.items():
        decomposition.check()
        assert decomposition.bound_us == result.paths[key].total_us, key


@pytest.mark.parametrize("serialization", ["safe", "windowed", "paper"])
def test_fig2_conserves_in_every_serialization_mode(fig2, serialization):
    assert_all_conserve(analyze_trajectory(fig2, serialization=serialization, explain=True))


def test_fig2_conserves_without_refinement(fig2):
    assert_all_conserve(analyze_trajectory(fig2, refine_smax=False, explain=True))


def test_explain_off_is_the_default_and_neutral(fig2):
    plain = analyze_trajectory(fig2)
    explained = analyze_trajectory(fig2, explain=True)
    assert plain.provenance is None
    for key in plain.paths:
        assert plain.paths[key].total_us == explained.paths[key].total_us


def test_fig2_v3_counted_twice_charges_both_transitions(fig2):
    # v3 crosses e3->S2->S3->e6: two switch transitions, each charged one
    # largest competitor frame (500 B at 100 Mb/s = 40 us) — the paper's
    # "counted twice" phenomenon.
    result = analyze_trajectory(fig2, explain=True)
    decomposition = result.provenance[("v3", 0)]
    transitions = [t for t in decomposition.terms if t.label == "counted-twice"]
    assert len(transitions) == 2
    assert all(t.value_us == 40.0 for t in transitions)


def test_workload_children_sum_to_the_workload_term(fig2):
    result = analyze_trajectory(fig2, explain=True)
    saw_children = False
    for decomposition in result.provenance.values():
        for term in decomposition.terms:
            if term.label == "workload" and term.children:
                saw_children = True
                assert math.fsum(c.value_us for c in term.children) == term.value_us
    assert saw_children


def test_serialization_gain_terms_are_gains(fig2):
    result = analyze_trajectory(fig2, serialization="windowed", explain=True)
    total_gain = 0.0
    for decomposition in result.provenance.values():
        gain = decomposition.total("serialization-gain")
        assert gain <= 0.0
        total_gain += gain
    assert total_gain < 0.0  # the fig2 sample exercises serialization


def test_result_cache_shortcut_is_bypassed_under_explain(fig2):
    # A cached whole-result cannot carry live sweep state; explain must
    # recompute so provenance is never stale.
    from repro.incremental.cache import BoundCache

    cache = BoundCache()
    analyze_trajectory(fig2, incremental=True, cache=cache)  # warm traj.result
    explained = analyze_trajectory(fig2, incremental=True, cache=cache, explain=True)
    assert_all_conserve(explained)
