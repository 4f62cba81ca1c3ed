"""Seeded property tests: conservation holds wherever bounds are produced.

The conservation invariant (every ledger fsum's to its bound bit for
bit) must survive every execution strategy the repo offers: the
analyzers run cold, and incremental replay after an edit script.  These tests sweep seeded random topologies and an
industrial sample so regressions in any engine trip the same wire.
"""

import pytest

from repro.configs import fig2_network
from repro.configs.random_topology import random_network
from repro.core.combined import AnalysisOptions
from repro.explain import explain_network
from repro.incremental import ResizeVL, RetimeVL
from repro.incremental.delta import DeltaAnalyzer
from repro.netcalc.analyzer import analyze_network_calculus
from repro.trajectory.analyzer import analyze_trajectory


def assert_explanation_conserves(explanation):
    summary = explanation.summary
    assert summary.conservation_failures == 0
    for provenance in (
        explanation.netcalc.provenance,
        explanation.trajectory.provenance,
    ):
        for decomposition in provenance.values():
            decomposition.check()


@pytest.mark.parametrize("seed", [7, 42, 589])
def test_random_networks_conserve(seed):
    network = random_network(seed, n_virtual_links=8)
    # safe serialization: the mode every topology is analyzable under
    explanation = explain_network(network, AnalysisOptions(serialization="safe"))
    assert_explanation_conserves(explanation)


def test_industrial_sample_conserves(small_industrial):
    explanation = explain_network(small_industrial)
    assert_explanation_conserves(explanation)
    assert explanation.summary.n_paths == len(explanation.comparison.paths)


def test_incremental_explain_matches_cold_after_edit_script(fig2):
    # Ten edits replayed through the DeltaAnalyzer: the warm, cache-served
    # run must attach provenance identical to a cold explained analysis
    # of the final configuration (never stale, never approximate).
    script = [
        [RetimeVL("v1", bag_ms=4.0)],
        [ResizeVL("v2", s_max_bytes=300.0)],
        [RetimeVL("v3", bag_ms=8.0), ResizeVL("v4", s_max_bytes=200.0)],
        [RetimeVL("v5", bag_ms=16.0)],
        [ResizeVL("v1", s_max_bytes=350.0), RetimeVL("v2", bag_ms=2.0)],
        [ResizeVL("v3", s_max_bytes=640.0)],
        [RetimeVL("v4", bag_ms=4.0), ResizeVL("v5", s_max_bytes=180.0)],
    ]
    assert sum(len(batch) for batch in script) == 10

    engine = DeltaAnalyzer(fig2, AnalysisOptions(explain=True))
    engine.analyze_base()
    for batch in script:
        delta = engine.apply(batch)

    cold_nc = analyze_network_calculus(engine.network, explain=True)
    cold_traj = analyze_trajectory(engine.network, explain=True)
    assert delta.netcalc.provenance == cold_nc.provenance
    assert delta.trajectory.provenance == cold_traj.provenance
    for decomposition in delta.netcalc.provenance.values():
        decomposition.check()
    for decomposition in delta.trajectory.provenance.values():
        decomposition.check()
