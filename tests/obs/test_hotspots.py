"""worker_lane_summary: per-phase lane utilization from span exports."""

from repro.obs.hotspots import worker_lane_summary


def _span(name, duration_ms, attrs=None, children=()):
    span = {
        "name": name,
        "start_ms": 0.0,
        "duration_ms": duration_ms,
        "children": list(children),
    }
    if attrs is not None:
        span["attrs"] = attrs
    return span


class TestWorkerLaneSummary:
    def test_no_stats_or_no_workers_is_empty(self):
        assert worker_lane_summary(None) == []
        assert worker_lane_summary({}) == []
        stats = {"spans": [_span("batch.trajectory", 10.0)]}
        assert worker_lane_summary(stats) == []

    def test_utilization_and_lane_fractions(self):
        stats = {
            "spans": [
                _span(
                    "batch.trajectory",
                    100.0,
                    attrs={
                        "workers": [50.0, 80.0],
                        "start_method": "fork",
                        "pool_reused": 1,
                    },
                )
            ]
        }
        (phase,) = worker_lane_summary(stats)
        assert phase["phase"] == "batch.trajectory"
        assert phase["lanes"] == 2
        assert phase["wall_ms"] == 100.0
        assert phase["utilization"] == 0.65  # (50 + 80) / (100 * 2)
        assert phase["lane_busy_frac"] == [0.5, 0.8]
        assert phase["stragglers"] == []
        assert phase["start_method"] == "fork"
        assert phase["pool_reused"] == 1

    def test_straggler_lane_detected(self):
        stats = {
            "spans": [
                _span(
                    "batch.netcalc",
                    100.0,
                    attrs={"workers": [10.0, 10.0, 90.0]},
                )
            ]
        }
        (phase,) = worker_lane_summary(stats)
        # mean busy ~36.7 ms; lane 2 exceeds 1.25x the mean
        assert phase["stragglers"] == [2]

    def test_single_lane_never_a_straggler(self):
        stats = {
            "spans": [_span("batch.trajectory", 10.0, attrs={"workers": [9.0]})]
        }
        (phase,) = worker_lane_summary(stats)
        assert phase["stragglers"] == []

    def test_nested_spans_visited(self):
        child = _span("batch.trajectory", 40.0, attrs={"workers": [20.0, 30.0]})
        stats = {"spans": [_span("analysis", 50.0, children=[child])]}
        (phase,) = worker_lane_summary(stats)
        assert phase["phase"] == "batch.trajectory"

    def test_utilization_clamped_to_one(self):
        # busy > wall happens when lanes overlap timer granularity
        stats = {
            "spans": [
                _span("batch.trajectory", 10.0, attrs={"workers": [11.0, 12.0]})
            ]
        }
        (phase,) = worker_lane_summary(stats)
        assert phase["utilization"] == 1.0
        assert phase["lane_busy_frac"] == [1.0, 1.0]
