"""``afdx whatif`` end to end: output, manifest wiring, failure modes."""

import json

import pytest

from repro.cli import EXIT_CONFIG_ERROR, main
from repro.configs import fig2_network
from repro.network import network_to_json


@pytest.fixture()
def fig2_json(tmp_path):
    path = tmp_path / "fig2.json"
    network_to_json(fig2_network(), path)
    return str(path)


def _script(tmp_path, edits):
    path = tmp_path / "edits.json"
    path.write_text(json.dumps({"edits": edits}))
    return str(path)


def test_whatif_prints_changed_bounds(fig2_json, tmp_path, capsys):
    script = _script(tmp_path, [{"op": "retime", "vl": "v1", "bag_ms": 8}])
    assert main(["whatif", fig2_json, script]) == 0
    out = capsys.readouterr().out
    assert out.startswith("whatif: 1 edit(s), dirty ")
    assert "path bound(s) changed" in out
    assert "v1[0]" in out
    assert "changed" in out
    assert "->" in out


def test_whatif_remove_prints_removed_kind(fig2_json, tmp_path, capsys):
    script = _script(tmp_path, [{"op": "remove", "vl": "v1"}])
    assert main(["whatif", fig2_json, script]) == 0
    out = capsys.readouterr().out
    assert "removed" in out
    assert "-" in out  # absent bounds render as "-"


def test_whatif_matches_cold_analysis_of_edited_network(fig2_json, tmp_path, capsys):
    """The printed after-bounds are the cold bounds of the edited network."""
    from repro.configs import fig2_network
    from repro.incremental.edits import RetimeVL, apply_edits
    from repro.trajectory.analyzer import analyze_trajectory

    script = _script(tmp_path, [{"op": "retime", "vl": "v1", "bag_ms": 8}])
    assert main(["whatif", fig2_json, script, "--serialization", "windowed"]) == 0
    out = capsys.readouterr().out
    edited, _ = apply_edits(fig2_network(), [RetimeVL(name="v1", bag_ms=8)])
    cold = analyze_trajectory(edited, serialization="windowed")
    expected = f"{cold.paths[('v1', 0)].total_us:.1f}"
    v1_line = next(line for line in out.splitlines() if line.startswith("v1[0]"))
    assert v1_line.rstrip().endswith(expected)


def test_whatif_manifest_records_dirty_region_and_cache(fig2_json, tmp_path, capsys):
    from repro.obs import validate_manifest

    script = _script(tmp_path, [{"op": "retime", "vl": "v1", "bag_ms": 8}])
    cache_dir = str(tmp_path / "cache")
    manifests = []
    for run in ("cold", "warm"):
        out = tmp_path / f"{run}.json"
        argv = ["whatif", fig2_json, script, "--cache-dir", cache_dir]
        assert main(argv + ["--metrics-json", str(out)]) == 0
        manifest = json.loads(out.read_text())
        validate_manifest(manifest)
        manifests.append(manifest)
    cold, warm = manifests
    assert cold["command"] == "whatif"
    gauges = cold["metrics"]["gauges"]
    assert gauges["whatif.dirty_ports"] > 0
    assert gauges["whatif.dirty_vls"] > 0
    assert gauges["whatif.changed_paths"] > 0
    assert gauges["whatif.cache_entries"] > 0
    # the edited configuration is new to the cold run: recomputed
    assert cold["metrics"]["counters"]["whatif.cache_misses"] > 0
    # the warm run analyzed it before: served whole, nothing missed
    counters = warm["metrics"]["counters"]
    assert counters["whatif.cache_hits"] > 0
    assert counters["whatif.cache_misses"] == 0
    # both analyzers' incremental stats ride along
    assert "network_calculus" in cold["analyzers"]
    assert "trajectory" in cold["analyzers"]


def test_whatif_cache_dir_persists_across_invocations(fig2_json, tmp_path, capsys):
    script = _script(tmp_path, [{"op": "retime", "vl": "v1", "bag_ms": 8}])
    cache_dir = str(tmp_path / "cache")
    assert main(["whatif", fig2_json, script, "--cache-dir", cache_dir]) == 0
    first = capsys.readouterr().out
    assert main(["whatif", fig2_json, script, "--cache-dir", cache_dir]) == 0
    second = capsys.readouterr().out
    assert first == second  # warm run prints identical bounds


def test_whatif_malformed_script_exits_with_config_code(fig2_json, tmp_path, capsys):
    script = _script(tmp_path, [{"op": "retime", "vl": "v1"}])  # bag_ms missing
    assert main(["whatif", fig2_json, script]) == EXIT_CONFIG_ERROR
    err = capsys.readouterr().err
    assert err.startswith("afdx: error:")
    assert "edit #1" in err


def test_whatif_unknown_vl_exits_with_config_code(fig2_json, tmp_path, capsys):
    script = _script(tmp_path, [{"op": "retime", "vl": "ghost", "bag_ms": 8}])
    assert main(["whatif", fig2_json, script]) == EXIT_CONFIG_ERROR
    assert "ghost" in capsys.readouterr().err
