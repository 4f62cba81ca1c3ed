"""BoundCache: LRU behaviour, disk persistence, codec round trips."""

import base64
import dataclasses
import io
import itertools
import json
import os
import struct

import pytest

from repro.cli import main
from repro.configs import fig1_network, fig2_network
from repro.configs.industrial import IndustrialConfigSpec, industrial_network
from repro.configs.random_topology import random_network
from repro.core.combined import AnalysisOptions, run_analyses
from repro.incremental.cache import CACHE_VERSION, BoundCache, _decode, _encode
from repro.netcalc.analyzer import analyze_network_calculus
from repro.netcalc.results import NetworkCalculusResult, PortAnalysis, path_bound
from repro.network import network_to_json
from repro.trajectory.analyzer import analyze_trajectory
from repro.trajectory.results import TrajectoryResult


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

    def test_reject_recounts_the_hit_just_served(self):
        cache = BoundCache()
        cache.put("nc.result", "f1", _result())
        cache.get("nc.result", "f1")
        cache.reject("nc.result", "f1")
        cache.reject("nc.result", "f1")  # no second hit to recount
        counters = cache.stats()
        assert (counters["hits"], counters["misses"], len(cache)) == (0, 1, 0)

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
        stale["paths"][0][0] = "renamed"  # a path row's VL name
        entry.write_text(json.dumps(stale))

        assert main(argv) == 0
        assert capsys.readouterr().out == cold
        assert json.loads(entry.read_text())["paths"][0][0] != "renamed"  # overwritten

    @pytest.mark.parametrize("namespace", ["nc.result", "traj.result"])
    def test_rejected_entry_counts_as_a_miss(self, namespace, tmp_path):
        network = fig2_network()

        def analyze(cache):
            nc = analyze_network_calculus(network, cache=cache)
            analyze_trajectory(network, cache=cache, nc_result=nc)

        analyze(BoundCache(cache_dir=tmp_path))
        (entry,) = (tmp_path / f"v{CACHE_VERSION}" / namespace).rglob("*.json")
        stale = json.loads(entry.read_text())
        stale["paths"][0][0] = "renamed"  # a path row's VL name
        entry.write_text(json.dumps(stale))
        assert BoundCache(cache_dir=tmp_path).get(namespace, entry.stem) is not None

        warm = BoundCache(cache_dir=tmp_path)
        analyze(warm)
        # the rejected entry is the miss; the other namespace's entry is the hit
        counters = warm.stats()
        assert (counters["hits"], counters["disk_hits"], counters["misses"]) == (1, 1, 1)


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


def _bits(value):
    """Every field of a value, each float as ``float.hex`` and each other
    scalar with its type, dicts in key order: equal iff the values are
    bit-identical."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, (list, tuple)):
        return [_bits(item) for item in value]
    if isinstance(value, dict):
        return [[_bits(key), _bits(item)] for key, item in sorted(value.items())]
    if dataclasses.is_dataclass(value):
        return [
            [field.name, _bits(getattr(value, field.name))]
            for field in dataclasses.fields(value)
        ]
    return [type(value).__name__, value]


def _through_disk(tmp_path, nc, trajectory):
    """Both results as a fresh cache reads them back from ``tmp_path``."""
    writer = BoundCache(cache_dir=tmp_path)
    writer.put("nc.result", "nc", nc)
    writer.put("traj.result", "traj", trajectory)
    reader = BoundCache(cache_dir=tmp_path)
    served = reader.get("nc.result", "nc"), reader.get("traj.result", "traj")
    assert reader.stats()["disk_hits"] == 2
    return served


CODEC_NETWORKS = {
    "fig1": fig1_network,
    "fig2": fig2_network,
    "random-589": lambda: random_network(589),
    "industrial-120": lambda: industrial_network(
        IndustrialConfigSpec(n_virtual_links=120)
    ),
}

#: ``-0.0``, a subnormal and a sum with no short decimal form
SPECIAL_FLOATS = (-0.0, 5e-324, 0.1 + 0.2)


class TestDiskRoundTrip:
    @pytest.mark.parametrize("mode", ["paper", "windowed", "safe"])
    @pytest.mark.parametrize("name", sorted(CODEC_NETWORKS))
    def test_every_field_survives_bit_for_bit(self, name, mode, tmp_path):
        results = run_analyses(
            CODEC_NETWORKS[name](), AnalysisOptions(serialization=mode)
        )
        assert _bits(_through_disk(tmp_path, *results)) == _bits(results)

    def test_special_floats_survive(self, tmp_path):
        nc, trajectory = run_analyses(fig1_network())
        specials = itertools.cycle(SPECIAL_FLOATS)
        ports = {
            port_id: dataclasses.replace(
                port, delay_us=next(specials), backlog_bits=next(specials),
                utilization=next(specials),
            )
            for port_id, port in sorted(nc.ports.items())
        }
        delays = {port_id: port.delay_us for port_id, port in ports.items()}
        paths = {
            key: path_bound(*key, bound.node_path, bound.port_ids, delays)
            for key, bound in nc.paths.items()
        }
        nc = NetworkCalculusResult(grouping=True, ports=ports, paths=paths)
        float_fields = [
            field.name
            for field in dataclasses.fields(next(iter(trajectory.paths.values())))
            if field.type == "float"
        ]
        trajectory = TrajectoryResult(
            serialization=trajectory.serialization,
            refinement_iterations=trajectory.refinement_iterations,
            paths={
                key: dataclasses.replace(
                    bound, **{name: next(specials) for name in float_fields}
                )
                for key, bound in sorted(trajectory.paths.items())
            },
        )
        served = _through_disk(tmp_path, nc, trajectory)
        assert _bits(served) == _bits((nc, trajectory))
        text = json.dumps(_bits(served))
        assert all(value.hex() in text for value in SPECIAL_FLOATS)


def _v2_layout(payload, namespace):
    """The same value as ``CACHE_VERSION`` 2 wrote it: one JSON object
    per port and path, every field spelled out."""
    value = _decode(payload)
    if namespace == "nc.result":
        return {
            "kind": "nc_result",
            "grouping": value.grouping,
            "ports": [dataclasses.asdict(p) for _, p in sorted(value.ports.items())],
            "paths": [dataclasses.asdict(b) for b in value.path_bounds()],
        }
    return {
        "kind": "traj_result",
        "serialization": value.serialization,
        "refinement_iterations": value.refinement_iterations,
        "paths": [dataclasses.asdict(b) for b in value.path_bounds()],
    }


def _one_value_short(payload, namespace):
    data = base64.b64decode(payload["floats"])
    return {**payload, "floats": base64.b64encode(data[:-8]).decode("ascii")}


def _row_missing_a_field(payload, namespace):
    payload["ports" if namespace == "nc.result" else "paths"][0].pop()
    return payload


MALFORMED = {
    "bad-base64": lambda payload, namespace: {**payload, "floats": "@@not base64@@"},
    "float-column-one-short": _one_value_short,
    "row-missing-a-field": _row_missing_a_field,
    "v2-layout": _v2_layout,
}

#: JSON values of every type, to put where a value of another type belongs
JSON_VALUES = (None, True, 7, 1.5, "x", [], {})


def _retyped(value):
    return [other for other in JSON_VALUES if type(other) is not type(value)]


def _shape_variants(payload, tables):
    """``payload`` with one field dropped or retyped: a key, a cell or a
    missing or extra cell of a table's first row, or the first node name
    of the first path."""
    for key, value in payload.items():
        yield {k: v for k, v in payload.items() if k != key}
        for other in _retyped(value):
            yield {**payload, key: other}
    for table in tables:
        first, rest = payload[table][0], payload[table][1:]
        rows = [first[:-1], first + [0]]
        for index, cell in enumerate(first):
            rows += [
                first[:index] + [other] + first[index + 1 :] for other in _retyped(cell)
            ]
        for row in rows:
            yield {**payload, table: [row] + rest}
    first, rest = payload["paths"][0], payload["paths"][1:]
    for other in _retyped(first[2][0]):
        row = [*first[:2], [other] + first[2][1:], *first[3:]]
        yield {**payload, "paths": [row] + rest}


class TestMalformedEntries:
    """An entry that does not decode to a value of its kind is a miss,
    and the analysis recomputes it: never an exception."""

    @pytest.fixture
    def written(self, tmp_path):
        """``(cold results, {namespace: entry path})`` of a fig2 run."""
        results = run_analyses(fig2_network(), cache=BoundCache(cache_dir=tmp_path))
        root = tmp_path / f"v{CACHE_VERSION}"
        entries = {
            namespace: next((root / namespace).rglob("*.json"))
            for namespace in ("nc.result", "traj.result", "traj.cost")
        }
        return results, entries

    @pytest.mark.parametrize("case", sorted(MALFORMED))
    @pytest.mark.parametrize("namespace", ["nc.result", "traj.result"])
    def test_malformed_entry_is_a_miss(self, namespace, case, tmp_path, written):
        results, entries = written
        entry = entries[namespace]
        payload = MALFORMED[case](json.loads(entry.read_text()), namespace)
        entry.write_text(json.dumps(payload))
        assert BoundCache(cache_dir=tmp_path).get(namespace, entry.stem) is None
        cache = BoundCache(cache_dir=tmp_path)
        rerun = run_analyses(fig2_network(), cache=cache)
        assert _bits(rerun) == _bits(results)
        assert (cache.stats()["hits"], cache.stats()["misses"]) == (1, 1)

    @pytest.mark.parametrize("namespace", ["nc.result", "traj.result"])
    def test_every_retyped_field_is_a_miss(self, namespace, tmp_path, written):
        entry = written[1][namespace]
        tables = ("ports", "paths") if namespace == "nc.result" else ("paths",)
        variants = list(_shape_variants(json.loads(entry.read_text()), tables))
        assert len(variants) > 40
        for payload in variants:
            entry.write_text(json.dumps(payload))
            fresh = BoundCache(cache_dir=tmp_path)
            assert fresh.get(namespace, entry.stem) is None, payload

    def test_an_overflowing_path_total_is_a_miss(self, tmp_path, written):
        """Two ports of one path at 1e308: their ``math.fsum`` overflows."""
        results, entries = written
        entry = entries["nc.result"]
        payload = json.loads(entry.read_text())
        data = base64.b64decode(payload["floats"])
        floats = list(struct.unpack(f"<{len(data) // 8}d", data))
        ports = [tuple(row[:2]) for row in payload["ports"]]
        nodes = next(row[2] for row in payload["paths"] if len(row[2]) > 2)
        for port in list(zip(nodes, nodes[1:]))[:2]:
            floats[3 * ports.index(port)] = 1e308  # each port's delay_us
        packed = struct.pack(f"<{len(floats)}d", *floats)
        payload["floats"] = base64.b64encode(packed).decode("ascii")
        entry.write_text(json.dumps(payload))
        assert BoundCache(cache_dir=tmp_path).get("nc.result", entry.stem) is None
        cache = BoundCache(cache_dir=tmp_path)
        assert _bits(run_analyses(fig2_network(), cache=cache)) == _bits(results)
        assert (cache.stats()["hits"], cache.stats()["misses"]) == (1, 1)

    def test_an_infinite_work_count_is_a_miss(self, tmp_path, written):
        entry = written[1]["traj.cost"]
        payload = json.loads(entry.read_text())
        payload["cost"]["work"]["sweeps"] = "INFINITE"
        entry.write_text(json.dumps(payload).replace('"INFINITE"', "1e400"))
        assert "1e400" in entry.read_text()
        assert BoundCache(cache_dir=tmp_path).get("traj.cost", entry.stem) is None
