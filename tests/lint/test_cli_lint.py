"""CLI contracts of ``afdx lint``, of the verifier every configuration
load runs, and of the exit codes it maps to.

Exit codes under test: 0 clean · 1 warnings with ``--strict`` ·
3 configuration errors (including cyclic routing) · 4 unstable network
(stability is the only violated rule).
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.cli import (
    EXIT_CONFIG_ERROR,
    EXIT_FAILURE,
    EXIT_OK,
    EXIT_UNSTABLE,
    main,
)
from repro.configs import fig2_network
from repro.network.serialization import network_to_json

FIXTURES = Path(__file__).parent / "fixtures"

EXPECTED = {
    "cyclic.json": "CFG101",
    "overloaded.json": "CFG102",
    "bad_bag.json": "CFG104",
    "bad_sizes.json": "CFG105",
    "disconnected.json": "CFG106",
    "multicast_not_tree.json": "CFG108",
    "saturated_switch_port.json": "CFG102",
}


@pytest.fixture()
def fig2_json(tmp_path):
    path = tmp_path / "fig2.json"
    network_to_json(fig2_network(), path)
    return str(path)


class TestLintCommand:
    @pytest.mark.parametrize("name,rule_id", sorted(EXPECTED.items()))
    def test_bad_fixture_exits_3_naming_the_rule(self, capsys, name, rule_id):
        code = main(["lint", str(FIXTURES / name), "--no-utilization-table"])
        out = capsys.readouterr().out
        assert code == EXIT_CONFIG_ERROR
        assert rule_id in out
        assert "INVALID" in out

    def test_clean_config_exits_0(self, capsys, fig2_json):
        code = main(["lint", fig2_json, "--no-utilization-table"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "OK" in out

    def test_multiple_configs_any_error_fails(self, fig2_json, capsys):
        code = main(
            ["lint", fig2_json, str(FIXTURES / "bad_bag.json"),
             "--no-utilization-table"]
        )
        out = capsys.readouterr().out
        assert code == EXIT_CONFIG_ERROR
        assert "OK" in out and "INVALID" in out

    def test_json_format_is_sorted_and_parseable(self, capsys):
        code = main(
            ["lint", str(FIXTURES / "overloaded.json"), "--format", "json"]
        )
        out = capsys.readouterr().out
        assert code == EXIT_CONFIG_ERROR
        payload = json.loads(out)
        assert payload["summary"]["errors"] == 1
        (config,) = payload["configs"]
        assert any(f["rule"] == "CFG102" for f in config["findings"])
        # deterministic serialization: re-dumping with sorted keys is a no-op
        assert out.strip() == json.dumps(payload, indent=2, sort_keys=True)

    def test_unreadable_file_exits_3(self, tmp_path, capsys):
        code = main(["lint", str(tmp_path / "missing.json")])
        assert code == EXIT_CONFIG_ERROR
        assert "ERROR" in capsys.readouterr().out

    def test_strict_promotes_warnings(self, tmp_path, capsys):
        # util 0.1093 with a 5% warning margin: warning but no error
        document = json.loads((FIXTURES / "overloaded.json").read_text())
        document["virtual_links"] = document["virtual_links"][:1]
        config = tmp_path / "warm.json"
        config.write_text(json.dumps(document))
        relaxed = ["--max-utilization", "1.0", "--no-utilization-table"]
        assert main(["lint", str(config)] + relaxed) == EXIT_OK
        capsys.readouterr()
        code = main(["lint", str(config), "--strict"] + relaxed)
        out = capsys.readouterr().out
        assert code == EXIT_OK  # 0.12 util is below the 0.75 margin
        assert "warning" in out


class TestAnalyzeErrorSurfacing:
    def test_cyclic_config_exits_3(self, capsys):
        code = main(["analyze", str(FIXTURES / "cyclic.json")])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG_ERROR
        assert err.startswith("afdx: error:")
        assert "cycle" in err

    def test_cyclic_config_with_preflight_names_rule(self, capsys):
        code = main(["analyze", str(FIXTURES / "cyclic.json")])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG_ERROR
        assert "CFG101" in err
        assert err.count("\n") == 1  # one-line diagnostic

    def test_unstable_config_exits_4(self, capsys):
        code = main(["analyze", str(FIXTURES / "overloaded.json")])
        assert code == EXIT_UNSTABLE

    def test_unstable_config_with_preflight_exits_4(self, capsys):
        code = main(["analyze", str(FIXTURES / "overloaded.json")])
        err = capsys.readouterr().err
        assert code == EXIT_UNSTABLE
        assert "CFG102" in err

    def test_whatif_preflight_rejects_cyclic(self, tmp_path, capsys):
        edits = tmp_path / "edits.json"
        edits.write_text('{"edits": []}')
        code = main(["whatif", str(FIXTURES / "cyclic.json"), str(edits)])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG_ERROR
        assert "CFG101" in err

    def test_warnings_go_to_stderr_and_bounds_stay(self, tmp_path, capsys):
        # 8 x 1518 B / 1 ms on one port: utilization 0.97, a CFG103
        # warning but no error; stdout is the analysis alone
        document = json.loads((FIXTURES / "overloaded.json").read_text())
        document["virtual_links"] = document["virtual_links"][:8]
        config = tmp_path / "warm.json"
        config.write_text(json.dumps(document))
        assert main(["analyze", str(config), "--top", "1"]) == EXIT_OK
        captured = capsys.readouterr()
        assert captured.err.startswith("afdx: warning: CFG103: ")
        assert "afdx: error" not in captured.err
        assert "CFG" not in captured.out

    @pytest.mark.parametrize("command", ["analyze", "whatif", "batch-sweep"])
    def test_preflight_option_is_gone(self, command, tmp_path, capsys):
        edits = tmp_path / "edits.json"
        edits.write_text('{"edits": []}')
        operands = {
            "analyze": [str(FIXTURES / "cyclic.json")],
            "whatif": [str(FIXTURES / "cyclic.json"), str(edits)],
            "batch-sweep": [],
        }[command]
        with pytest.raises(SystemExit) as excinfo:
            main([command, *operands, "--preflight"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --preflight" in capsys.readouterr().err

    def test_validate_command_is_gone(self, fig2_json, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["validate", fig2_json])
        assert excinfo.value.code == 2
        capsys.readouterr()


def _first_lint_error(config: Path, capsys) -> tuple:
    code = main(["lint", str(config), "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    (report,) = payload["configs"]
    errors = [f["rule"] for f in report["findings"] if f["severity"] == "error"]
    return code, errors


class TestOneVerdict:
    """``lint``, ``analyze`` and ``whatif`` judge a configuration alike:
    the same first rule id, and exit 4 exactly when CFG102 is the only
    error (``lint`` exits 3 on any error)."""

    @pytest.mark.parametrize(
        "name", sorted(p.name for p in FIXTURES.glob("*.json"))
    )
    def test_same_first_rule_everywhere(self, name, tmp_path, capsys):
        config = FIXTURES / name
        lint_code, errors = _first_lint_error(config, capsys)
        assert errors, f"{name} lints clean"
        assert lint_code == EXIT_CONFIG_ERROR
        first = errors[0]
        expected = EXIT_UNSTABLE if set(errors) == {"CFG102"} else EXIT_CONFIG_ERROR

        edits = tmp_path / "edits.json"
        edits.write_text('{"edits": []}')
        for argv in (
            ["analyze", str(config)],
            ["whatif", str(config), str(edits)],
        ):
            code = main(argv)
            captured = capsys.readouterr()
            error_lines = [
                line for line in captured.err.splitlines()
                if line.startswith("afdx: error:")
            ]
            assert code == expected, (argv, captured.err)
            assert len(error_lines) == 1, captured.err
            assert error_lines[0].startswith(f"afdx: error: {first}: "), (
                argv, error_lines,
            )
            assert captured.out == ""


class TestLintManifest:
    def test_manifest_carries_lint_gauges(self, tmp_path, capsys):
        manifest_path = tmp_path / "manifest.json"
        code = main(
            ["lint", str(FIXTURES / "overloaded.json"),
             "--metrics-json", str(manifest_path)]
        )
        capsys.readouterr()
        assert code == EXIT_CONFIG_ERROR
        manifest = json.loads(manifest_path.read_text())
        gauges = manifest["metrics"]["gauges"]
        assert gauges["lint.configs"] == 1
        assert gauges["lint.errors"] == 1
        assert gauges["lint.warnings"] == 0
