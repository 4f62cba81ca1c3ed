"""Chrome-trace export (repro.obs.tracefile).

The guarantees under test: exported documents satisfy the validator
(so Perfetto / ``chrome://tracing`` load them), merge stacks runs under
fresh pid lanes, writes are atomic, and the structural skeleton left by
:func:`strip_wall_fields` is byte-identical across reruns.
"""

import json

import pytest

from repro.netcalc.analyzer import analyze_network_calculus
from repro.obs.tracefile import (
    build_chrome_trace,
    load_chrome_trace,
    merge_chrome_trace,
    strip_wall_fields,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.trajectory.analyzer import analyze_trajectory


def _analyzers(network):
    nc = analyze_network_calculus(network, collect_stats=True)
    tr = analyze_trajectory(network, collect_stats=True)
    return {"network_calculus": nc.stats, "trajectory": tr.stats}


class TestBuild:
    def test_document_is_valid_and_has_spans(self, fig2):
        doc = build_chrome_trace(_analyzers(fig2))
        validate_chrome_trace(doc)  # must not raise
        spans = [ev for ev in doc["traceEvents"] if ev["ph"] == "X"]
        assert spans
        assert doc["displayTimeUnit"] == "ms"
        assert doc["otherData"]["runs"] == ["afdx"]

    def test_each_analyzer_gets_a_named_pid_lane(self, fig2):
        doc = build_chrome_trace(_analyzers(fig2), label="test")
        names = {
            ev["args"]["name"]: ev["pid"]
            for ev in doc["traceEvents"]
            if ev["ph"] == "M" and ev["name"] == "process_name"
        }
        # sorted analyzer order: network_calculus first, trajectory second
        assert names == {"test:network_calculus": 1, "test:trajectory": 2}
        for ev in doc["traceEvents"]:
            if ev["ph"] == "X":
                assert ev["pid"] in (1, 2)

    def test_analyzers_without_stats_are_skipped(self):
        doc = build_chrome_trace({"trajectory": None})
        validate_chrome_trace(doc)
        assert doc["traceEvents"] == []


class TestValidate:
    def test_rejects_non_object(self):
        with pytest.raises(ValueError, match="JSON object"):
            validate_chrome_trace([])

    def test_rejects_missing_event_list(self):
        with pytest.raises(ValueError, match="traceEvents"):
            validate_chrome_trace({"displayTimeUnit": "ms"})

    def test_rejects_unknown_phase(self):
        doc = {"traceEvents": [{"ph": "B", "name": "x", "pid": 1, "tid": 1}]}
        with pytest.raises(ValueError, match="unsupported phase"):
            validate_chrome_trace(doc)

    def test_rejects_non_integer_pid(self):
        doc = {
            "traceEvents": [
                {"ph": "X", "name": "x", "pid": "p", "tid": 1, "ts": 0, "dur": 1}
            ]
        }
        with pytest.raises(ValueError, match="pid"):
            validate_chrome_trace(doc)

    def test_rejects_negative_duration(self):
        doc = {
            "traceEvents": [
                {"ph": "X", "name": "x", "pid": 1, "tid": 1, "ts": 0, "dur": -1}
            ]
        }
        with pytest.raises(ValueError, match="dur"):
            validate_chrome_trace(doc)


class TestMergeAndPersist:
    def test_merge_shifts_pids_and_concatenates_runs(self, fig2):
        first = build_chrome_trace(_analyzers(fig2), label="cold")
        second = build_chrome_trace(_analyzers(fig2), label="warm")
        merged = merge_chrome_trace(first, second)
        validate_chrome_trace(merged)
        pids = {ev["pid"] for ev in merged["traceEvents"]}
        assert pids == {1, 2, 3, 4}
        assert merged["otherData"]["runs"] == ["cold", "warm"]

    def test_write_load_round_trip(self, fig2, tmp_path):
        doc = build_chrome_trace(_analyzers(fig2))
        target = tmp_path / "trace.json"
        write_chrome_trace(target, doc)
        assert load_chrome_trace(target) == doc
        # atomic write leaves no temp litter behind
        assert [p.name for p in tmp_path.iterdir()] == ["trace.json"]

    def test_write_rejects_invalid_doc_without_touching_target(self, tmp_path):
        target = tmp_path / "trace.json"
        target.write_text("{\"traceEvents\": []}\n")
        with pytest.raises(ValueError):
            write_chrome_trace(target, {"traceEvents": "nope"})
        assert json.loads(target.read_text()) == {"traceEvents": []}

    def test_load_rejects_non_json(self, tmp_path):
        bad = tmp_path / "trace.json"
        bad.write_text("not json")
        with pytest.raises(ValueError, match="not valid JSON"):
            load_chrome_trace(bad)


class TestStripWallFields:
    def test_drops_ts_dur_and_ms_args(self):
        doc = {
            "traceEvents": [
                {
                    "ph": "X",
                    "name": "x",
                    "pid": 1,
                    "tid": 1,
                    "ts": 12.3,
                    "dur": 4.5,
                    "args": {"n_ports": 4, "elapsed_ms": 9.1},
                }
            ],
            "otherData": {"tool": "afdx"},
        }
        stripped = strip_wall_fields(doc)
        (event,) = stripped["traceEvents"]
        assert "ts" not in event and "dur" not in event
        assert event["args"] == {"n_ports": 4}

    def test_skeleton_identical_across_reruns(self, fig2):
        canon = [
            json.dumps(
                strip_wall_fields(build_chrome_trace(_analyzers(fig2))),
                sort_keys=True,
            )
            for _ in range(2)
        ]
        assert canon[0] == canon[1]

