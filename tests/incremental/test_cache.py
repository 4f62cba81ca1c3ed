"""BoundCache: LRU behaviour, disk persistence, codec round trips."""

import json

import pytest

from repro.configs.random_topology import random_network
from repro.incremental.cache import BoundCache, _decode, _encode
from repro.netcalc.analyzer import analyze_network_calculus
from repro.netcalc.results import PortAnalysis
from repro.trajectory.analyzer import analyze_trajectory


def _port(delay=1.25):
    return PortAnalysis(
        port_id=("a", "b"),
        delay_us=delay,
        backlog_bits=1000.5,
        utilization=0.25,
        n_flows=3,
        n_groups=2,
    )


class TestMemoryLayer:
    def test_get_put_and_counters(self):
        cache = BoundCache()
        assert cache.get("nc.port", "f1") is None
        cache.put("nc.port", "f1", _port())
        assert cache.get("nc.port", "f1") == _port()
        assert cache.stats() == {
            "hits": 1,
            "misses": 1,
            "disk_hits": 0,
            "evictions": 0,
            "invalidations": 0,
            "stores": 1,
        }
        assert cache.hit_rate == 0.5

    def test_lru_evicts_least_recently_used(self):
        cache = BoundCache(max_entries=2)
        cache.put("nc.port", "a", _port(1.0))
        cache.put("nc.port", "b", _port(2.0))
        cache.get("nc.port", "a")  # refresh a; b becomes LRU
        cache.put("nc.port", "c", _port(3.0))
        assert cache.get("nc.port", "b") is None
        assert cache.get("nc.port", "a") is not None
        assert cache.stats()["evictions"] == 1

    def test_invalidate(self):
        cache = BoundCache()
        cache.put("nc.port", "a", _port())
        assert cache.invalidate("nc.port", "a") is True
        assert cache.invalidate("nc.port", "a") is False
        assert cache.get("nc.port", "a") is None
        assert cache.stats()["invalidations"] == 1

    def test_namespaces_do_not_collide(self):
        cache = BoundCache()
        cache.put("nc.port", "same-fp", _port())
        assert cache.get("traj.walk", "same-fp") is None

    def test_max_entries_validation(self):
        with pytest.raises(ValueError, match="max_entries"):
            BoundCache(max_entries=0)


class TestDiskLayer:
    def test_round_trip_across_instances(self, tmp_path):
        first = BoundCache(cache_dir=tmp_path)
        first.put("nc.port", "abcd", _port())
        second = BoundCache(cache_dir=tmp_path)
        value = second.get("nc.port", "abcd")
        assert value == _port()
        assert second.stats()["disk_hits"] == 1

    def test_floats_survive_json_exactly(self, tmp_path):
        ugly = _port(delay=0.1 + 0.2)  # 0.30000000000000004
        first = BoundCache(cache_dir=tmp_path)
        first.put("nc.port", "f", ugly)
        second = BoundCache(cache_dir=tmp_path)
        assert second.get("nc.port", "f").delay_us == ugly.delay_us

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = BoundCache(cache_dir=tmp_path)
        cache.put("nc.port", "dead", _port())
        path = cache._entry_path("nc.port", "dead")
        path.write_text("{ torn")
        fresh = BoundCache(cache_dir=tmp_path)
        assert fresh.get("nc.port", "dead") is None

    def test_entry_from_another_cache_version_is_a_miss(self, tmp_path, monkeypatch):
        from repro.incremental import cache as cache_module

        current = cache_module.CACHE_VERSION
        monkeypatch.setattr(cache_module, "CACHE_VERSION", current - 1)
        BoundCache(cache_dir=tmp_path).put("nc.port", "old", _port())
        assert BoundCache(cache_dir=tmp_path).get("nc.port", "old") == _port()
        monkeypatch.setattr(cache_module, "CACHE_VERSION", current)
        fresh = BoundCache(cache_dir=tmp_path)
        assert fresh.get("nc.port", "old") is None
        assert fresh.stats()["misses"] == 1

    def test_invalidate_removes_disk_entry(self, tmp_path):
        cache = BoundCache(cache_dir=tmp_path)
        cache.put("nc.port", "gone", _port())
        cache.invalidate("nc.port", "gone")
        fresh = BoundCache(cache_dir=tmp_path)
        assert fresh.get("nc.port", "gone") is None


class TestResultCodec:
    @pytest.fixture(scope="class")
    def network(self):
        return random_network(5, n_switches=3, n_end_systems=6, n_virtual_links=8)

    def test_nc_result_round_trip(self, network):
        result = analyze_network_calculus(network)
        decoded = _decode(json.loads(json.dumps(_encode(result))))
        assert decoded.grouping == result.grouping
        assert decoded.ports == result.ports
        assert decoded.paths == result.paths

    def test_trajectory_result_round_trip(self, network):
        result = analyze_trajectory(network)
        decoded = _decode(json.loads(json.dumps(_encode(result))))
        assert decoded.serialization == result.serialization
        assert decoded.refinement_iterations == result.refinement_iterations
        assert decoded.paths == result.paths

    def test_cached_results_exclude_stats(self, network):
        # run-specific observability must not be served from the cache
        cache = BoundCache()
        result = analyze_trajectory(network, cache=cache, collect_stats=True)
        assert result.stats is not None
        repeat = analyze_trajectory(network, cache=cache, collect_stats=True)
        assert repeat.stats is not None
        assert repeat.stats["counters"].get("trajectory.result_cache_hit") == 1
        assert repeat.paths == result.paths

    def test_unknown_type_rejected(self):
        with pytest.raises(TypeError):
            _encode(object())
        with pytest.raises(ValueError):
            _decode({"kind": "mystery"})

    def test_node_fold_round_trip(self, tmp_path):
        """The ``traj.node`` fold value survives the JSON disk tier
        exactly (repr round-trips every float)."""
        fold = (
            (1.25, 3.0000000000000004, 7.1e-300),
            (-0.5, 0.0),
            ((12.5, 1500.0), (25.0, 64.0)),
        )
        decoded = _decode(json.loads(json.dumps(_encode(fold))))
        assert decoded == fold
        assert isinstance(decoded, tuple)
        assert all(isinstance(part, tuple) for part in decoded)

        cache = BoundCache(cache_dir=tmp_path)
        cache.put("traj.node", "aa" + "0" * 62, fold)
        fresh = BoundCache(cache_dir=tmp_path)
        assert fresh.get("traj.node", "aa" + "0" * 62) == fold
