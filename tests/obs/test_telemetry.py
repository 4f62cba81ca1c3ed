"""FleetView aggregation, the drain thread, and the fleet_drain gate."""

import io
import queue as queue_module

from repro.obs.telemetry import (
    STOP_EVENT_KIND,
    FleetView,
    TelemetryDrain,
    fleet_drain,
)


class _Clock:
    """Deterministic monotonic clock for rate/ETA assertions."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def _view(total=10):
    clock = _Clock()
    view = FleetView(total, stream=io.StringIO(), clock=clock)
    return view, clock


class TestFleetView:
    def test_config_events_accumulate(self):
        view, clock = _view()
        clock.now = 2.0
        view.handle({"kind": "config", "lane": 101, "n": 1})
        view.handle({"kind": "config", "lane": 100, "n": 2})
        assert view.done == 3
        assert view.lanes == {100: 2, 101: 1}
        assert view.throughput == 1.5
        # 7 configurations left at 1.5 cfg/s
        assert abs(view.eta_s - 7 / 1.5) < 1e-9

    def test_cache_tallies_fold_into_hit_rate(self):
        view, _clock = _view()
        view.handle(
            {"kind": "config", "lane": 100, "cache_hits": 3, "cache_misses": 1}
        )
        assert view.cache_hit_rate == 0.75
        assert view.cache_hit_rate is not None

    def test_no_lookups_means_no_rate(self):
        view, _clock = _view()
        assert view.cache_hit_rate is None
        assert "cache" not in view.render_line()

    def test_unknown_kinds_only_bump_the_event_counter(self):
        view, _clock = _view()
        view.handle({"kind": "mystery", "lane": 100})
        view.handle("not even a dict")
        assert view.events == 1
        assert view.done == 0

    def test_render_line_shape(self):
        view, clock = _view(total=4)
        clock.now = 2.0
        view.handle(
            {
                "kind": "config",
                "lane": 100,
                "n": 2,
                "cache_hits": 1,
                "cache_misses": 1,
            }
        )
        line = view.render_line()
        assert line.startswith("fleet 2/4 cfg | 1.0 cfg/s | eta 2s")
        assert "cache 50%" in line
        assert "w100:2" in line

    def test_render_is_rate_limited_but_close_forces(self):
        view, clock = _view()
        for _ in range(50):
            view.handle({"kind": "config", "lane": 100, "n": 1})
        assert view.renders == 1  # clock never advanced past the interval
        view.close()
        assert view.renders == 2
        assert view.stream.getvalue().endswith("\n")

    def test_snapshot_is_json_shaped(self):
        view, clock = _view(total=4)
        clock.now = 1.0
        view.handle(
            {"kind": "config", "lane": 101, "n": 2, "cache_hits": 2}
        )
        snap = view.snapshot()
        assert snap["configs_done"] == 2
        assert snap["configs_total"] == 4
        assert snap["lanes"] == {"101": 2}  # str keys: JSON-safe
        assert snap["cache_hit_rate"] == 1.0
        assert snap["throughput_cfg_s"] == 2.0


class TestTelemetryDrain:
    def test_drains_until_sentinel(self):
        events = []
        channel = queue_module.SimpleQueue()
        for index in range(3):
            channel.put({"kind": "config", "lane": 100, "n": 1, "i": index})
        drain = TelemetryDrain(channel, events.append).start()
        drain.stop()
        assert len(events) == 3
        assert drain.events == 3

    def test_events_ahead_of_the_sentinel_still_deliver(self):
        events = []
        channel = queue_module.SimpleQueue()
        channel.put({"kind": "config"})
        channel.put({"kind": STOP_EVENT_KIND})
        drain = TelemetryDrain(channel, events.append)
        drain._run()  # synchronous: deterministic ordering
        assert events == [{"kind": "config"}]

    def test_handler_exceptions_do_not_kill_the_drain(self):
        seen = []

        def explode(event):
            seen.append(event)
            raise RuntimeError("bad render")

        channel = queue_module.SimpleQueue()
        channel.put({"kind": "config", "n": 1})
        channel.put({"kind": "config", "n": 2})
        drain = TelemetryDrain(channel, explode).start()
        drain.stop()
        assert len(seen) == 2

    def test_stop_is_idempotent(self):
        channel = queue_module.SimpleQueue()
        drain = TelemetryDrain(channel, lambda event: None).start()
        drain.stop()
        drain.stop()  # no error, thread already gone

    def test_context_manager(self):
        events = []
        channel = queue_module.SimpleQueue()
        with TelemetryDrain(channel, events.append):
            channel.put({"kind": "config"})
        assert events == [{"kind": "config"}]


class _FakePool:
    def __init__(self, queue):
        self.telemetry_queue = queue


class TestFleetDrainGate:
    def test_needs_both_queue_and_progress(self):
        channel = queue_module.SimpleQueue()
        assert fleet_drain(_FakePool(None), object(), 5) == (None, None)
        assert fleet_drain(_FakePool(channel), None, 5) == (None, None)

    def test_activates_with_queue_and_progress(self):
        channel = queue_module.SimpleQueue()
        view, drain = fleet_drain(_FakePool(channel), object(), 5)
        try:
            assert view is not None
            assert view.total == 5
            channel.put({"kind": "config", "lane": 100, "n": 1})
        finally:
            drain.stop()
        assert view.done == 1
