"""The ``traj.node`` namespace: cross-config fold memoization.

The trajectory kernel's batched busy-period folds are content-addressed by a
chained per-port structural digest plus the sweep-varying floats and
the port's packed ``Smax`` slice, so a structurally identical subpath
in a *different* configuration (or process) hits through the disk
tier.  These tests pin that: a sibling config produced by an edit
re-uses folds on the untouched subtrees and still lands bit-identical
bounds.
"""

import pytest

from repro.configs import random_network
from repro.incremental.cache import BoundCache
from repro.incremental.edits import RetimeVL, apply_edits
from repro.trajectory.analyzer import TrajectoryAnalyzer, analyze_trajectory


def _network():
    # wide enough that the vectorized fold path (and with it the node
    # cache) engages, small enough to stay cheap
    return random_network(11, n_switches=2, n_end_systems=4, n_virtual_links=40)


def _variant(network):
    vl0 = sorted(network.virtual_links)[0]
    edited, _impact = apply_edits(
        network, [RetimeVL(name=vl0, bag_ms=network.vl(vl0).bag_us * 2 / 1000)]
    )
    return edited


def _analyze(network, cache):
    analyzer = TrajectoryAnalyzer(network, serialization="safe", cache=cache)
    return analyzer, analyzer.analyze()


class TestNodeNamespace:
    def test_cold_run_stores_folds(self, tmp_path):
        analyzer, _ = _analyze(_network(), BoundCache(cache_dir=tmp_path))
        hits, misses = analyzer.cache_stats()["node"]
        assert hits == 0
        assert misses > 0
        assert list(tmp_path.glob("v*/traj.node/**/*.json")), (
            "misses were not persisted to the disk tier"
        )

    def test_cross_config_hits_with_identical_bounds(self, tmp_path):
        base = _network()
        sibling = _variant(base)
        _analyze(base, BoundCache(cache_dir=tmp_path))

        # fresh cache object, same disk tier: only the disk entries
        # written by the base config can satisfy these probes
        analyzer, cached = _analyze(sibling, BoundCache(cache_dir=tmp_path))
        hits, _misses = analyzer.cache_stats()["node"]
        assert hits > 0, "no cross-config fold reuse on untouched subtrees"

        plain = analyze_trajectory(sibling, serialization="safe")
        assert set(plain.paths) == set(cached.paths)
        for key in plain.paths:
            assert plain.paths[key].total_us == cached.paths[key].total_us, key

    def test_not_engaged_outside_incremental_mode(self):
        analyzer = TrajectoryAnalyzer(_network(), serialization="safe")
        analyzer.analyze()
        assert "node" not in analyzer.cache_stats()
