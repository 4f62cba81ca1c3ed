"""Logger hierarchy, the configure() helper, and worker-lane prefixes."""

import io
import logging

import pytest

from repro.obs.logging import (
    ROOT_LOGGER_NAME,
    configure,
    get_logger,
    kv,
    lane_prefix,
    set_worker_lane,
    worker_lane,
)


@pytest.fixture(autouse=True)
def _reset_repro_logger():
    yield
    set_worker_lane(None)
    root = logging.getLogger(ROOT_LOGGER_NAME)
    root.handlers.clear()
    root.setLevel(logging.NOTSET)
    root.propagate = True


def test_get_logger_namespacing():
    assert get_logger().name == "repro"
    assert get_logger("netcalc").name == "repro.netcalc"
    assert get_logger("repro.trajectory").name == "repro.trajectory"


def test_children_inherit_configuration():
    stream = io.StringIO()
    configure("DEBUG", stream=stream)
    get_logger("netcalc").debug("propagation %s", kv(ports=12))
    text = stream.getvalue()
    assert "repro.netcalc" in text
    assert "ports=12" in text


def test_configure_is_idempotent():
    first = io.StringIO()
    second = io.StringIO()
    configure("INFO", stream=first)
    configure("INFO", stream=second)
    root = logging.getLogger(ROOT_LOGGER_NAME)
    assert len(root.handlers) == 1
    get_logger("cli").info("hello")
    assert "hello" not in first.getvalue()
    assert "hello" in second.getvalue()


def test_configure_rejects_unknown_level():
    with pytest.raises(ValueError):
        configure("LOUD")


def test_level_filtering():
    stream = io.StringIO()
    configure("WARNING", stream=stream)
    get_logger("sim").info("quiet")
    get_logger("sim").warning("loud")
    assert "quiet" not in stream.getvalue()
    assert "loud" in stream.getvalue()


def test_kv_formatting():
    assert kv(a=1, b=2.34567, c="plain") == "a=1 b=2.346 c=plain"
    assert kv(msg="two words") == "msg='two words'"


class TestWorkerLanePrefix:
    def test_prefix_format_matches_pool_lanes(self):
        """``[w<lane>]`` with lanes numbered like the pool's worker slots."""
        from repro.batch.pool import LANE_BASE

        assert LANE_BASE == 100
        assert lane_prefix(LANE_BASE + 2) == "[w102]"

    def test_repro_records_get_the_prefix(self):
        stream = io.StringIO()
        configure("INFO", stream=stream)
        set_worker_lane(101)
        assert worker_lane() == 101
        get_logger("batch").info("chunk done %s", kv(n=4))
        assert "[w101] chunk done n=4" in stream.getvalue()

    def test_foreign_records_stay_untouched(self):
        set_worker_lane(101)
        record = logging.getLogRecordFactory()(
            "other.lib", logging.INFO, __file__, 1, "hello", (), None
        )
        assert record.msg == "hello"

    def test_none_uninstalls(self):
        stream = io.StringIO()
        configure("INFO", stream=stream)
        set_worker_lane(101)
        set_worker_lane(None)
        assert worker_lane() is None
        get_logger("batch").info("plain")
        text = stream.getvalue()
        assert "plain" in text
        assert "[w101]" not in text

    def test_reinstall_replaces_instead_of_stacking(self):
        stream = io.StringIO()
        configure("INFO", stream=stream)
        set_worker_lane(100)
        set_worker_lane(103)
        get_logger("batch").info("swapped")
        text = stream.getvalue()
        assert "[w103] swapped" in text
        assert "[w100]" not in text
