"""Run-history recording by the CLI and the ``afdx obs`` queries."""

import json

import pytest

from repro.cli import main
from repro.configs import fig2_network
from repro.network import network_to_json
from repro.obs.history import RunHistory, deterministic_view


@pytest.fixture
def fig2_json(tmp_path):
    path = tmp_path / "fig2.json"
    network_to_json(fig2_network(), path)
    return str(path)


@pytest.fixture
def hist_dir(tmp_path):
    return str(tmp_path / "history")


def _analyze(fig2_json, hist_dir, git_rev, monkeypatch, *extra):
    monkeypatch.setenv("AFDX_GIT_REV", git_rev)
    return main(
        ["analyze", fig2_json, "--history-dir", hist_dir] + list(extra)
    )


class TestRecording:
    def test_analyze_appends_one_record(
        self, fig2_json, hist_dir, monkeypatch, capsys
    ):
        assert _analyze(fig2_json, hist_dir, "rev-a", monkeypatch) == 0
        (record,) = RunHistory(hist_dir).records()
        assert record["command"] == "analyze"
        assert record["status"] == "ok"
        assert record["git_rev"] == "rev-a"
        assert record["config"]["name"] == "fig2"
        assert len(record["config_digest"]) == 64
        assert len(record["bounds_digest"]) == 64
        assert record["work"]  # cost-ledger signature present
        assert record["execution"] == {"cache_dir": None}
        assert "cache_dir" not in record["options"]  # execution, not identity
        assert record["wall"]["total_ms"] > 0
        assert f"(run {record['run_id']} recorded" in capsys.readouterr().err

    def test_no_history_dir_records_nothing(self, fig2_json, monkeypatch, capsys):
        monkeypatch.delenv("AFDX_HISTORY_DIR", raising=False)
        assert main(["analyze", fig2_json]) == 0
        assert "recorded in history" not in capsys.readouterr().err

    def test_env_var_enables_recording(
        self, fig2_json, hist_dir, monkeypatch
    ):
        monkeypatch.setenv("AFDX_HISTORY_DIR", hist_dir)
        assert main(["analyze", fig2_json]) == 0
        assert len(RunHistory(hist_dir).records()) == 1

    def test_deterministic_view_stable_across_cache_states(
        self, fig2_json, hist_dir, tmp_path, monkeypatch
    ):
        cache = str(tmp_path / "cache")
        for rev in ("rev-a", "rev-b"):  # cold, then warm
            assert (
                _analyze(fig2_json, hist_dir, rev, monkeypatch, "--cache-dir", cache)
                == 0
            )
        cold, warm = RunHistory(hist_dir).records()
        assert cold["execution"]["cache_dir"] == warm["execution"]["cache_dir"] == cache
        assert cold["cache"] != warm["cache"]  # the warm run was served whole
        assert json.dumps(deterministic_view(cold), sort_keys=True) == json.dumps(
            deterministic_view(warm), sort_keys=True
        )

    def test_whatif_folds_edits_into_config_digest(
        self, fig2_json, hist_dir, tmp_path, monkeypatch
    ):
        edits = tmp_path / "edits.json"
        edits.write_text(
            json.dumps(
                {"edits": [{"op": "resize", "vl": "v1", "s_max_bytes": 1000}]}
            )
        )
        monkeypatch.setenv("AFDX_GIT_REV", "rev-a")
        base = ["--history-dir", hist_dir]
        assert main(["analyze", fig2_json] + base) == 0
        assert main(["whatif", fig2_json, str(edits)] + base) == 0
        analyzed, whatif = RunHistory(hist_dir).records()
        assert whatif["command"] == "whatif"
        assert whatif["config_digest"] != analyzed["config_digest"]
        assert whatif["bounds_digest"] != analyzed["bounds_digest"]

    def test_report_records_its_analysis(
        self, fig2_json, hist_dir, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.setenv("AFDX_GIT_REV", "rev-a")
        base = ["--history-dir", hist_dir]
        manifest = tmp_path / "report.json"
        assert main(["analyze", fig2_json] + base) == 0
        assert main(["report", fig2_json, "--metrics-json", str(manifest)] + base) == 0
        analyzed, reported = RunHistory(hist_dir).records()
        assert reported["command"] == "report"
        assert reported["bounds_digest"] == analyzed["bounds_digest"]
        document = json.loads(manifest.read_text())
        assert set(document["analyzers"]) == {"network_calculus", "trajectory"}
        assert document["bounds"]["n_paths"] == 5


class TestObsQueries:
    @pytest.fixture
    def recorded(self, fig2_json, hist_dir, monkeypatch):
        assert _analyze(fig2_json, hist_dir, "rev-a", monkeypatch) == 0
        assert _analyze(fig2_json, hist_dir, "rev-b", monkeypatch) == 0
        return RunHistory(hist_dir).records()

    def test_requires_a_history_dir(self, monkeypatch, capsys):
        monkeypatch.delenv("AFDX_HISTORY_DIR", raising=False)
        assert main(["obs", "list"]) == 3
        assert "no run history directory" in capsys.readouterr().err

    def test_list_shows_every_run(self, recorded, hist_dir, capsys):
        assert main(["obs", "list", "--history-dir", hist_dir]) == 0
        out = capsys.readouterr().out
        for record in recorded:
            assert record["run_id"] in out
        assert "2 of 2 record(s)" in out

    def test_list_filters(self, recorded, hist_dir, capsys):
        assert (
            main(
                [
                    "obs",
                    "list",
                    "--history-dir",
                    hist_dir,
                    "--command",
                    "whatif",
                ]
            )
            == 0
        )
        assert "0 of 0 record(s)" in capsys.readouterr().out

    def test_show_emits_the_full_record(self, recorded, hist_dir, capsys):
        run_id = recorded[0]["run_id"]
        assert (
            main(["obs", "show", run_id, "--history-dir", hist_dir]) == 0
        )
        out = capsys.readouterr().out
        assert recorded[0]["bounds_digest"] in out

    def test_show_json_round_trips(self, recorded, hist_dir, capsys):
        run_id = recorded[0]["run_id"]
        assert (
            main(
                [
                    "obs",
                    "show",
                    run_id,
                    "--history-dir",
                    hist_dir,
                    "--format",
                    "json",
                ]
            )
            == 0
        )
        assert json.loads(capsys.readouterr().out)["run_id"] == run_id

    def test_show_unknown_run_fails(self, recorded, hist_dir, capsys):
        assert (
            main(["obs", "show", "zzzz", "--history-dir", hist_dir]) == 1
        )
        assert "no run" in capsys.readouterr().err

    def test_diff_identical_runs(self, recorded, hist_dir, capsys):
        a, b = (record["run_id"] for record in recorded)
        assert main(["obs", "diff", a, b, "--history-dir", hist_dir]) == 0
        out = capsys.readouterr().out
        assert "bounds: identical" in out
        assert "work counters identical" in out

    def test_diff_needs_exactly_two(self, recorded, hist_dir, capsys):
        assert (
            main(
                [
                    "obs",
                    "diff",
                    recorded[0]["run_id"],
                    "--history-dir",
                    hist_dir,
                ]
            )
            == 3
        )
        assert "exactly two" in capsys.readouterr().err

    def test_drift_clean_across_revs(self, recorded, hist_dir, capsys):
        assert main(["obs", "drift", "--history-dir", hist_dir]) == 0
        assert "verdict: clean" in capsys.readouterr().out

    def test_injected_bounds_change_is_fatal_drift(
        self, recorded, hist_dir, capsys
    ):
        from repro.obs.history import build_run_record

        RunHistory(hist_dir).append(
            build_run_record(
                command="analyze",
                config_digest=recorded[0]["config_digest"],
                bounds_digest="0" * 64,
                options=recorded[0]["options"],
                git_rev="rev-evil",
            )
        )
        assert main(["obs", "drift", "--history-dir", hist_dir]) == 1
        out = capsys.readouterr().out
        assert "verdict: drift" in out
        assert "DRIFT" in out

    def test_strict_promotes_more_work(self, recorded, hist_dir, capsys):
        from repro.obs.history import build_run_record

        inflated = {
            name: {counter: value + 1 for counter, value in counters.items()}
            for name, counters in recorded[0]["work"].items()
        }
        RunHistory(hist_dir).append(
            build_run_record(
                command="analyze",
                config_digest=recorded[0]["config_digest"],
                bounds_digest=recorded[0]["bounds_digest"],
                work=inflated,
                options=recorded[0]["options"],
                git_rev="rev-more",
            )
        )
        assert main(["obs", "drift", "--history-dir", hist_dir]) == 0
        capsys.readouterr()
        assert (
            main(["obs", "drift", "--strict", "--history-dir", hist_dir])
            == 1
        )
        assert "more-work" in capsys.readouterr().out

    def test_drift_json_format(self, recorded, hist_dir, capsys):
        assert (
            main(
                ["obs", "drift", "--history-dir", hist_dir, "--format", "json"]
            )
            == 0
        )
        report = json.loads(capsys.readouterr().out)
        assert report["verdict"] == "clean"
        assert report["scanned"] == 2
