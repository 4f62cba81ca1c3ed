"""The persistent run-history store and its diff/drift queries."""

import json

import pytest

from repro.obs import resolve_history_dir
from repro.obs.history import (
    HISTORY_SCHEMA_VERSION,
    RunHistory,
    build_run_record,
    cache_summary,
    deterministic_view,
    diff_runs,
    drift_report,
    git_revision,
    render_drift_report,
    render_run_diff,
    render_run_line,
    validate_run_record,
)

CFG = "c" * 64
BOUNDS = "b" * 64


def _record(**overrides):
    fields = dict(
        command="analyze",
        config_digest=CFG,
        bounds_digest=BOUNDS,
        work={"netcalc": {"ports_converged": 7}},
        options={"top": 10},
        git_rev="rev-1",
        recorded_at="2026-08-07T00:00:00Z",
    )
    fields.update(overrides)
    return build_run_record(**fields)


class TestResolution:
    def test_flag_wins_over_env(self, monkeypatch):
        monkeypatch.setenv("AFDX_HISTORY_DIR", "/env/dir")
        assert resolve_history_dir("/flag/dir") == "/flag/dir"
        assert resolve_history_dir(None) == "/env/dir"

    def test_unset_means_disabled(self, monkeypatch):
        monkeypatch.delenv("AFDX_HISTORY_DIR", raising=False)
        assert resolve_history_dir(None) is None

    def test_git_rev_env_override(self, monkeypatch):
        monkeypatch.setenv("AFDX_GIT_REV", "deadbeef")
        assert git_revision() == "deadbeef"


class TestRecordAssembly:
    def test_schema_stamp_and_validation(self):
        record = _record()
        assert record["history_schema"] == HISTORY_SCHEMA_VERSION
        validate_run_record(record)  # does not raise

    def test_run_ids_are_unique(self):
        a, b = _record(), _record()
        assert a["run_id"] != b["run_id"]

    def test_deterministic_view_drops_volatile_fields(self):
        record = _record(
            cache={"trajectory": {"events.hits": 3}},
            execution={"jobs": 4},
            wall_ms=12.5,
        )
        view = deterministic_view(record)
        for volatile in ("run_id", "recorded_at", "git_rev", "wall",
                         "cache", "execution"):
            assert volatile not in view
        assert view["bounds_digest"] == BOUNDS
        assert view["work"] == {"netcalc": {"ports_converged": 7}}

    def test_deterministic_view_is_byte_stable_across_runs(self):
        views = [
            json.dumps(
                deterministic_view(
                    _record(git_rev=f"rev-{i}", execution={"jobs": i + 1})
                ),
                sort_keys=True,
            )
            for i in range(3)
        ]
        assert views[0] == views[1] == views[2]

    @pytest.mark.parametrize(
        "mutation",
        [
            {"history_schema": 99},
            {"status": "maybe"},
            {"command": ""},
            {"work": {"netcalc": {"ports": 1.5}}},
            {"work": {"netcalc": {"ports": True}}},
            {"bounds_digest": 123},
        ],
    )
    def test_validation_rejects_bad_shapes(self, mutation):
        record = _record()
        record.update(mutation)
        with pytest.raises(ValueError):
            validate_run_record(record)


class TestCacheSummary:
    def test_flattens_ledger_cache_sections(self):
        stats = {
            "trajectory": {
                "cost": {
                    "cache": {
                        "events": {"hits": 8, "misses": 2},
                        "horizon": {"hits": 1, "misses": 0},
                    }
                }
            },
            "netcalc": {"cost": {}},  # no cache section -> omitted
            "sim": None,
        }
        assert cache_summary(stats) == {
            "trajectory": {
                "events.hits": 8,
                "events.misses": 2,
                "horizon.hits": 1,
                "horizon.misses": 0,
            }
        }


class TestStore:
    def test_append_and_read_back(self, tmp_path):
        history = RunHistory(tmp_path)
        record = history.append(_record())
        assert history.records() == [record]
        assert history.index()["total_records"] == 1

    def test_appends_are_whole_lines(self, tmp_path):
        history = RunHistory(tmp_path)
        for _ in range(3):
            history.append(_record())
        (segment,) = history.segment_paths()
        lines = segment.read_text().splitlines()
        assert len(lines) == 3
        for line in lines:
            validate_run_record(json.loads(line))

    def test_segment_rotation(self, tmp_path):
        history = RunHistory(tmp_path, segment_records=2)
        for _ in range(5):
            history.append(_record())
        assert [p.name for p in history.segment_paths()] == [
            "seg-000001.jsonl",
            "seg-000002.jsonl",
            "seg-000003.jsonl",
        ]
        assert len(history.records()) == 5

    def test_records_survive_missing_index(self, tmp_path):
        history = RunHistory(tmp_path)
        history.append(_record())
        history.index_path.unlink()
        assert len(history.records()) == 1
        assert history.index()["total_records"] == 1  # rebuilt

    def test_torn_foreign_line_is_skipped(self, tmp_path):
        history = RunHistory(tmp_path)
        history.append(_record())
        (segment,) = history.segment_paths()
        with open(segment, "a") as handle:
            handle.write('{"torn": \n')
        history.append(_record())
        assert len(history.records()) == 2

    def test_filters_and_limit(self, tmp_path):
        history = RunHistory(tmp_path)
        history.append(_record(command="analyze"))
        history.append(_record(command="whatif"))
        history.append(_record(command="analyze", config_digest="d" * 64))
        assert len(history.records(command="analyze")) == 2
        assert len(history.records(config_digest=CFG)) == 2
        newest = history.records(limit=1)
        assert len(newest) == 1
        assert newest[0]["config_digest"] == "d" * 64

    def test_get_resolves_prefixes(self, tmp_path):
        history = RunHistory(tmp_path)
        record = history.append(_record())
        run_id = record["run_id"]
        assert history.get(run_id) == record
        assert history.get(run_id[:12]) == record
        # the hash part after the timestamp resolves too
        assert history.get(run_id.split("-", 1)[1][:6]) == record
        assert history.get("nope") is None

    def test_get_rejects_ambiguous_prefix(self, tmp_path):
        history = RunHistory(tmp_path)
        history.append(_record())
        history.append(_record())
        with pytest.raises(ValueError, match="ambiguous"):
            history.get("2026")  # shared timestamp prefix

    def test_rejects_invalid_segment_size(self, tmp_path):
        with pytest.raises(ValueError):
            RunHistory(tmp_path, segment_records=0)


class TestDiff:
    def test_identical_runs(self):
        diff = diff_runs(_record(), _record())
        assert diff["same_config"] is True
        assert diff["bounds"]["identical"] is True
        assert diff["work_delta"] == {}
        text = render_run_diff(diff)
        assert "bounds: identical" in text
        assert "work counters identical" in text

    def test_bounds_and_work_changes_surface(self):
        before = _record()
        after = _record(
            bounds_digest="e" * 64,
            work={"netcalc": {"ports_converged": 9}},
        )
        diff = diff_runs(before, after)
        assert diff["bounds"]["identical"] is False
        assert diff["work_delta"]["netcalc.ports_converged"]["delta"] == 2
        text = render_run_diff(diff)
        assert "DIFFERENT" in text
        assert "7 -> 9 (+2)" in text

    def test_missing_digests_never_claim_identity(self):
        diff = diff_runs(
            _record(bounds_digest=None), _record(bounds_digest=None)
        )
        assert diff["bounds"]["identical"] is False


class TestDrift:
    def test_clean_across_revs_and_jobs(self):
        records = [
            _record(git_rev="rev-1"),
            _record(git_rev="rev-2", execution={"jobs": 4}),
        ]
        report = drift_report(records)
        assert report["verdict"] == "clean"
        assert report["groups_compared"] == 1
        assert report["drifts"] == []
        assert report["more_work"] == []
        assert "verdict: clean" in render_drift_report(report)

    def test_bounds_change_at_fixed_config_is_drift(self):
        records = [
            _record(git_rev="rev-1"),
            _record(git_rev="rev-2", bounds_digest="0" * 64),
        ]
        report = drift_report(records)
        assert report["verdict"] == "drift"
        (drift,) = report["drifts"]
        assert drift["config_digest"] == CFG
        assert len(drift["variants"]) == 2
        assert "DRIFT" in render_drift_report(report)

    def test_bound_options_split_groups(self):
        records = [
            _record(options={"serialization": "windowed", "no_grouping": False}),
            _record(
                options={"serialization": "safe", "no_grouping": False},
                bounds_digest="0" * 64,
            ),
            _record(
                options={"serialization": "windowed", "no_grouping": True},
                bounds_digest="1" * 64,
            ),
        ]
        report = drift_report(records)
        assert report["verdict"] == "clean"
        assert report["groups"] == 3

    def test_display_options_share_a_group(self):
        records = [
            _record(options={"serialization": "safe", "top": 0}),
            _record(
                options={"serialization": "safe", "top": 1, "jitter": True},
                bounds_digest="0" * 64,
            ),
        ]
        report = drift_report(records)
        assert report["verdict"] == "drift"
        (drift,) = report["drifts"]
        assert drift["options"] == {"serialization": "safe"}
        assert 'options={"serialization": "safe"}' in render_drift_report(report)

    def test_different_configs_never_compared(self):
        records = [
            _record(),
            _record(config_digest="d" * 64, bounds_digest="0" * 64),
        ]
        assert drift_report(records)["verdict"] == "clean"

    def test_more_work_across_revs_is_advisory(self):
        records = [
            _record(git_rev="rev-1"),
            _record(
                git_rev="rev-2",
                work={"netcalc": {"ports_converged": 12}},
            ),
        ]
        report = drift_report(records)
        assert report["verdict"] == "clean"  # advisory, not drift
        (trend,) = report["more_work"]
        assert trend["counter"] == "netcalc.ports_converged"
        assert (trend["before"], trend["after"]) == (7, 12)
        assert "more-work" in render_drift_report(report)

    def test_more_work_within_one_rev_stays_silent(self):
        records = [
            _record(git_rev="rev-1"),
            _record(
                git_rev="rev-1",
                work={"netcalc": {"ports_converged": 12}},
            ),
        ]
        assert drift_report(records)["more_work"] == []

    def test_config_digest_filter(self):
        records = [
            _record(),
            _record(config_digest="d" * 64, bounds_digest="0" * 64),
            _record(config_digest="d" * 64, bounds_digest="1" * 64),
        ]
        assert drift_report(records, config_digest=CFG)["verdict"] == "clean"
        assert (
            drift_report(records, config_digest="d" * 64)["verdict"] == "drift"
        )


class TestRendering:
    def test_list_line_carries_the_handles(self):
        line = render_run_line(_record(wall_ms=12.345))
        assert "analyze" in line
        assert "rev=rev-1" in line
        assert f"cfg={CFG[:12]}" in line
        assert f"bounds={BOUNDS[:12]}" in line
        assert "wall=12.345ms" in line
