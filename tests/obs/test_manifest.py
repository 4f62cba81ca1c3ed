"""Run-manifest assembly and schema validation."""

import json

import pytest

from repro.configs import fig2_network
from repro.core.combined import analyze_network
from repro.obs.manifest import (
    MANIFEST_VERSION,
    bound_summary,
    build_manifest,
    network_identity,
    validate_manifest,
    write_manifest,
)


def minimal_manifest(**overrides):
    manifest = build_manifest(command="analyze", options={"top": 0})
    manifest.update(overrides)
    return manifest


def test_network_identity_fields(fig2):
    identity = network_identity(fig2)
    assert identity["name"] == "fig2"
    assert identity["n_virtual_links"] == len(fig2.virtual_links)
    assert identity["n_paths"] == len(fig2.flow_paths())
    assert identity["n_nodes"] > 0 and identity["n_links"] > 0


def test_bound_summary_aggregates(fig2):
    result = analyze_network(fig2)
    summary = bound_summary(result)
    assert summary["n_paths"] == len(result.paths)
    for method in ("network_calculus", "trajectory", "combined"):
        agg = summary[method]
        assert agg["min_us"] <= agg["mean_us"] <= agg["max_us"]
    # combined is the per-path min, so its mean cannot exceed either method's
    assert summary["combined"]["mean_us"] <= summary["network_calculus"]["mean_us"]
    assert "mean_benefit_trajectory_pct" in summary


def test_minimal_manifest_validates():
    validate_manifest(minimal_manifest())


def test_build_manifest_version_and_status():
    manifest = minimal_manifest()
    assert manifest["manifest_version"] == MANIFEST_VERSION
    assert manifest["status"] == "ok"


def test_error_status_requires_error_message():
    manifest = minimal_manifest(status="error")
    with pytest.raises(ValueError, match="error"):
        validate_manifest(manifest)
    manifest["error"] = "boom"
    validate_manifest(manifest)


@pytest.mark.parametrize(
    "mutate",
    [
        lambda m: m.pop("manifest_version"),
        lambda m: m.update(manifest_version=99),
        lambda m: m.pop("command"),
        lambda m: m.update(status="weird"),
        lambda m: m.update(options="not a dict"),
        lambda m: m.update(config={"name": "x"}),  # missing population counts
        lambda m: m.update(analyzers={"nc": {"counters": {}}}),  # missing sections
        lambda m: m.update(bounds={"n_paths": "many"}),
    ],
)
def test_invalid_manifests_rejected(mutate):
    manifest = minimal_manifest()
    mutate(manifest)
    with pytest.raises(ValueError):
        validate_manifest(manifest)


def test_sweep_trace_validation():
    stats = {
        "counters": {},
        "gauges": {},
        "timers": {},
        "spans": [],
        "sweeps": [{"sweep": 1, "smax_updates": 3, "max_delta_us": 1.5}],
    }
    validate_manifest(minimal_manifest(analyzers={"trajectory": stats}))
    stats["sweeps"].append({"sweep": 2})  # missing fields
    with pytest.raises(ValueError):
        validate_manifest(minimal_manifest(analyzers={"trajectory": stats}))


def test_write_manifest_round_trip(tmp_path):
    path = tmp_path / "manifest.json"
    manifest = minimal_manifest()
    write_manifest(manifest, path)
    assert json.loads(path.read_text()) == manifest


def test_write_manifest_rejects_invalid(tmp_path):
    bad = {"manifest_version": MANIFEST_VERSION}
    with pytest.raises(ValueError):
        write_manifest(bad, tmp_path / "bad.json")
    assert not (tmp_path / "bad.json").exists()


def test_explain_gauges_round_trip(tmp_path):
    # the afdx explain summary gauges are plain numbers, so they ride the
    # schema's metrics section unchanged through JSON and validation
    metrics = {
        "counters": {},
        "gauges": {
            "explain.paths": 626,
            "explain.nc_wins": 98,
            "explain.trajectory_wins": 528,
            "explain.ties": 0,
            "explain.conservation_failures": 0,
            "explain.max_abs_residual_us": 4.6e-13,
        },
        "timers": {},
    }
    path = tmp_path / "manifest.json"
    write_manifest(build_manifest(command="explain", options={}, metrics=metrics), path)
    loaded = json.loads(path.read_text())
    validate_manifest(loaded)
    assert loaded["metrics"]["gauges"] == metrics["gauges"]


def test_write_manifest_is_atomic(tmp_path):
    # tmp + os.replace: a crash mid-write can never leave a truncated
    # manifest behind, and no temp litter survives a successful write
    path = tmp_path / "manifest.json"
    write_manifest(minimal_manifest(), path)
    assert [p.name for p in tmp_path.iterdir()] == ["manifest.json"]
    validate_manifest(json.loads(path.read_text()))


def test_write_manifest_invalid_preserves_existing_file(tmp_path):
    path = tmp_path / "manifest.json"
    write_manifest(minimal_manifest(), path)
    before = path.read_text()
    with pytest.raises(ValueError):
        write_manifest({"manifest_version": "nope"}, path)
    assert path.read_text() == before  # validation runs before the write
    assert [p.name for p in tmp_path.iterdir()] == ["manifest.json"]


def test_whatif_gauges_round_trip(tmp_path):
    metrics = {
        "counters": {"cache.hit.nc.port": 12},
        "gauges": {
            "whatif.dirty_ports": 3,
            "whatif.dirty_vls": 5,
            "whatif.changed_paths": 2,
        },
        "timers": {},
    }
    path = tmp_path / "manifest.json"
    write_manifest(build_manifest(command="whatif", options={}, metrics=metrics), path)
    loaded = json.loads(path.read_text())
    validate_manifest(loaded)
    assert loaded["metrics"]["gauges"] == metrics["gauges"]
    assert loaded["metrics"]["counters"] == metrics["counters"]
