"""BoundCache: LRU behaviour, disk persistence, codec round trips."""

import io
import json
import os

import pytest

from repro.cli import main
from repro.configs import fig2_network
from repro.configs.random_topology import random_network
from repro.incremental.cache import CACHE_VERSION, BoundCache, _decode, _encode
from repro.netcalc.analyzer import analyze_network_calculus
from repro.netcalc.results import NetworkCalculusResult, PortAnalysis
from repro.network import network_to_json
from repro.trajectory.analyzer import analyze_trajectory


def _result(delay=1.25):
    """A one-port NC result: the smallest value the cache stores."""
    port = PortAnalysis(
        port_id=("a", "b"),
        delay_us=delay,
        backlog_bits=1000.5,
        utilization=0.25,
        n_flows=3,
        n_groups=2,
    )
    return NetworkCalculusResult(grouping=True, ports={port.port_id: port})


class TestMemoryLayer:
    def test_get_put_and_counters(self):
        cache = BoundCache()
        assert cache.get("nc.result", "f1") is None
        cache.put("nc.result", "f1", _result())
        assert cache.get("nc.result", "f1") == _result()
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
        cache.put("nc.result", "a", _result(1.0))
        cache.put("nc.result", "b", _result(2.0))
        cache.get("nc.result", "a")  # refresh a; b becomes LRU
        cache.put("nc.result", "c", _result(3.0))
        assert cache.get("nc.result", "b") is None
        assert cache.get("nc.result", "a") is not None
        assert cache.stats()["evictions"] == 1

    def test_invalidate(self):
        cache = BoundCache()
        cache.put("nc.result", "a", _result())
        assert cache.invalidate("nc.result", "a") is True
        assert cache.invalidate("nc.result", "a") is False
        assert cache.get("nc.result", "a") is None
        assert cache.stats()["invalidations"] == 1

    def test_namespaces_do_not_collide(self):
        cache = BoundCache()
        cache.put("nc.result", "same-fp", _result())
        assert cache.get("traj.result", "same-fp") is None

    def test_max_entries_validation(self):
        with pytest.raises(ValueError, match="max_entries"):
            BoundCache(max_entries=0)


class TestDiskLayer:
    def test_round_trip_across_instances(self, tmp_path):
        first = BoundCache(cache_dir=tmp_path)
        first.put("nc.result", "abcd", _result())
        second = BoundCache(cache_dir=tmp_path)
        value = second.get("nc.result", "abcd")
        assert value == _result()
        assert second.stats()["disk_hits"] == 1

    def test_floats_survive_json_exactly(self, tmp_path):
        ugly = _result(delay=0.1 + 0.2)  # 0.30000000000000004
        first = BoundCache(cache_dir=tmp_path)
        first.put("nc.result", "f", ugly)
        second = BoundCache(cache_dir=tmp_path)
        assert (
            second.get("nc.result", "f").ports[("a", "b")].delay_us
            == ugly.ports[("a", "b")].delay_us
        )

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = BoundCache(cache_dir=tmp_path)
        cache.put("nc.result", "dead", _result())
        path = cache._entry_path("nc.result", "dead")
        path.write_text("{ torn")
        fresh = BoundCache(cache_dir=tmp_path)
        assert fresh.get("nc.result", "dead") is None

    def test_entry_from_another_cache_version_is_a_miss(self, tmp_path, monkeypatch):
        from repro.incremental import cache as cache_module

        current = cache_module.CACHE_VERSION
        monkeypatch.setattr(cache_module, "CACHE_VERSION", current - 1)
        BoundCache(cache_dir=tmp_path).put("nc.result", "old", _result())
        assert BoundCache(cache_dir=tmp_path).get("nc.result", "old") == _result()
        monkeypatch.setattr(cache_module, "CACHE_VERSION", current)
        fresh = BoundCache(cache_dir=tmp_path)
        assert fresh.get("nc.result", "old") is None
        assert fresh.stats()["misses"] == 1

    def test_invalidate_removes_disk_entry(self, tmp_path):
        cache = BoundCache(cache_dir=tmp_path)
        cache.put("nc.result", "gone", _result())
        cache.invalidate("nc.result", "gone")
        fresh = BoundCache(cache_dir=tmp_path)
        assert fresh.get("nc.result", "gone") is None

    def test_entry_bytes_are_json_dump_output(self, tmp_path):
        network = random_network(5, n_switches=3, n_end_systems=6, n_virtual_links=8)
        cache = BoundCache(cache_dir=tmp_path)
        nc = analyze_network_calculus(network, cache=cache)
        analyze_trajectory(network, cache=cache, nc_result=nc)
        namespaces = set()
        for (namespace, fingerprint), value in cache._entries.items():
            expected = io.StringIO()
            json.dump(_encode(value), expected)
            path = cache._entry_path(namespace, fingerprint)
            assert path.read_text() == expected.getvalue()
            namespaces.add(namespace)
        assert namespaces == {"nc.result", "traj.result", "traj.cost"}

    def test_failed_replace_leaves_no_temp_file(self, tmp_path, monkeypatch):
        def refuse(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", refuse)
        cache = BoundCache(cache_dir=tmp_path)
        cache.put("nc.result", "abcd", _result())
        assert cache.get("nc.result", "abcd") == _result()  # memory kept it
        assert list(tmp_path.rglob("*.tmp")) == []

    def test_unencodable_value_leaves_no_temp_file(self, tmp_path):
        cache = BoundCache(cache_dir=tmp_path)
        with pytest.raises(TypeError):
            cache.put("nc.result", "abcd", object())
        assert list(tmp_path.rglob("*.tmp")) == []


class TestStaleResultEntry:
    """A well-formed result entry whose path keys differ from the
    network's (an edited or foreign file) is a miss, not a crash."""

    @pytest.mark.parametrize("namespace", ["nc.result", "traj.result"])
    def test_analyze_recomputes_and_overwrites(self, namespace, tmp_path, capsys):
        config = tmp_path / "fig2.json"
        network_to_json(fig2_network(), config)
        cache_dir = tmp_path / "cache"
        argv = ["analyze", str(config), "--cache-dir", str(cache_dir)]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        (entry,) = (cache_dir / f"v{CACHE_VERSION}" / namespace).rglob("*.json")
        stale = json.loads(entry.read_text())
        stale["paths"] = []
        entry.write_text(json.dumps(stale))

        assert main(argv) == 0
        assert capsys.readouterr().out == cold
        assert json.loads(entry.read_text())["paths"]  # overwritten


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
