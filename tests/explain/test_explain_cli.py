"""The ``afdx explain`` subcommand end to end."""

import json

import pytest

from repro.cli import EXIT_ANALYSIS_ERROR, EXIT_OK, main
from repro.configs import fig2_network
from repro.network import network_to_json


@pytest.fixture
def fig2_json(tmp_path):
    path = tmp_path / "fig2.json"
    network_to_json(fig2_network(), path)
    return str(path)


def run(capsys, argv, expect=EXIT_OK):
    assert main(argv) == expect
    return capsys.readouterr().out


def test_text_report_structure(fig2_json, capsys):
    out = run(capsys, ["explain", fig2_json])
    assert "bound provenance" in out
    assert "conservation: 10/10 ledgers exact" in out
    assert "dominant term:" in out
    assert "counted-twice" in out and "burst-accumulation" in out


def test_json_report_is_machine_readable(fig2_json, capsys):
    doc = json.loads(run(capsys, ["explain", fig2_json, "--format", "json"]))
    assert doc["summary"]["conservation_failures"] == 0
    assert len(doc["paths"]) == 5
    for path in doc["paths"]:
        for method in ("network_calculus", "trajectory"):
            assert path[method]["conserved"] is True


def test_html_report_renders(fig2_json, capsys):
    out = run(capsys, ["explain", fig2_json, "--format", "html"])
    assert "<html" in out and "</html>" in out


def test_vl_and_path_filters(fig2_json, capsys):
    out = run(capsys, ["explain", fig2_json, "--vl", "v3", "--path", "0"])
    assert "v3[0]" in out
    assert "v1[0]" not in out


def test_unknown_vl_is_an_analysis_error(fig2_json, capsys):
    assert main(["explain", fig2_json, "--vl", "nope"]) == EXIT_ANALYSIS_ERROR
    assert "unknown VL" in capsys.readouterr().err


def test_output_file_and_warm_cache_byte_identical(fig2_json, tmp_path, capsys):
    cache = str(tmp_path / "cache")
    cold = run(capsys, ["explain", fig2_json, "--format", "json", "--cache-dir", cache])

    out = tmp_path / "explanation.json"
    argv = ["explain", fig2_json, "--format", "json", "--cache-dir", cache, "-o", str(out)]
    assert main(argv) == 0
    assert out.read_text() == cold


def test_cold_vs_warm_cache_byte_identical(fig2_json, tmp_path, capsys):
    cache = str(tmp_path / "cache")
    cold = run(capsys, ["explain", fig2_json, "--cache-dir", cache])
    warm = run(capsys, ["explain", fig2_json, "--cache-dir", cache])
    assert cold == warm


def test_manifest_carries_explain_gauges(fig2_json, tmp_path, capsys):
    from repro.obs import validate_manifest

    metrics = tmp_path / "manifest.json"
    assert main(["explain", fig2_json, "--metrics-json", str(metrics)]) == 0
    capsys.readouterr()
    manifest = json.loads(metrics.read_text())
    validate_manifest(manifest)
    gauges = manifest["metrics"]["gauges"]
    assert gauges["explain.paths"] == 5
    assert gauges["explain.conservation_failures"] == 0
    assert gauges["explain.trajectory_wins"] == 5
    assert gauges["explain.max_abs_residual_us"] < 1e-9
    assert "network_calculus" in manifest["analyzers"]
    assert "trajectory" in manifest["analyzers"]
