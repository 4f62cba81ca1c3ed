"""Unit tests for the worker-pool plumbing."""

import multiprocessing
import os
import signal
import time

import pytest

from repro.batch.pool import WorkerPool, chunked, resolve_jobs, worker_payload
from repro.errors import AnalysisError, ConfigurationError, UnstableNetworkError


class TestChunked:
    def test_concatenation_reproduces_items(self):
        items = list(range(17))
        for n in (1, 2, 3, 5, 17, 40):
            chunks = chunked(items, n)
            assert [x for chunk in chunks for x in chunk] == items

    def test_balanced_sizes(self):
        chunks = chunked(list(range(10)), 3)
        sizes = [len(chunk) for chunk in chunks]
        assert sum(sizes) == 10
        assert max(sizes) - min(sizes) <= 1

    def test_never_more_chunks_than_items(self):
        assert len(chunked([1, 2], 8)) == 2

    def test_empty_items(self):
        assert chunked([], 4) == []

    def test_invalid_chunk_count(self):
        with pytest.raises(ValueError):
            chunked([1], 0)


class TestResolveJobs:
    def test_explicit_value_passes_through(self):
        assert resolve_jobs(3) == 3

    def test_none_and_zero_mean_all_cores(self):
        assert resolve_jobs(None) >= 1
        assert resolve_jobs(0) == resolve_jobs(None)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            resolve_jobs(-1)


def _double(x):
    return 2 * x


def _raise_payload_error(_x):
    raise _ERRORS[_x]


_ERRORS = {
    "config": ConfigurationError("bad config"),
    "unstable": UnstableNetworkError("overloaded"),
    "analysis": AnalysisError("generic analysis failure"),
}


class TestWorkerPool:
    def test_requires_two_workers(self):
        with pytest.raises(ValueError):
            WorkerPool(1, payload=None)

    def test_map_preserves_task_order(self):
        with WorkerPool(2, payload=None) as pool:
            assert pool.map(_double, list(range(20))) == [2 * x for x in range(20)]

    @pytest.mark.parametrize("kind", ["config", "unstable", "analysis"])
    def test_analysis_errors_propagate_with_type(self, kind):
        """Worker-raised repro.errors surface unchanged in the coordinator.

        The CLI's existing exception handler then maps them to exit
        codes 3/4/5 — covered end-to-end in test_batch_analyzer.py.
        """
        with pytest.raises(type(_ERRORS[kind]), match=str(_ERRORS[kind])):
            with WorkerPool(2, payload=None) as pool:
                pool.map(_raise_payload_error, [kind])


def _pid(_task):
    return os.getpid()


def _pid_and_payload(_task):
    time.sleep(0.02)  # long enough that every idle worker takes a task
    return os.getpid(), worker_payload()


def _kill_self(_task):
    os.kill(os.getpid(), signal.SIGKILL)


def _wait_for_respawn(known_pids, timeout=15.0):
    """Block until a worker pid outside ``known_pids`` is alive."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        fresh = {child.pid for child in multiprocessing.active_children()} - known_pids
        if fresh:
            return fresh
        time.sleep(0.05)
    pytest.fail("the killed worker was not respawned")


class TestPayloadEpochs:
    def test_swapped_payload_reaches_workers_and_close_reaps(self):
        """An explicit ``close()`` after a swap leaves no worker behind."""
        pool = WorkerPool(2, {"epoch": 0})
        try:
            pool.set_payload({"epoch": 1})
            answers = pool.map(_pid_and_payload, [0, 1])
            assert [payload for _pid, payload in answers] == [{"epoch": 1}] * 2
        finally:
            pool.close()
        assert multiprocessing.active_children() == []

    def test_three_epochs_reach_the_workers(self):
        with WorkerPool(2, {"epoch": "initial"}) as pool:
            for epoch in range(3):
                pool.set_payload({"epoch": epoch})
                assert pool.epochs_served == epoch + 1
                answers = pool.map(_pid_and_payload, range(8))
                assert [payload for _pid, payload in answers] == [{"epoch": epoch}] * 8
        assert multiprocessing.active_children() == []

    def test_sigkilled_worker_times_out_and_terminate_reaps(self):
        """A SIGKILLed worker loses its in-flight task: ``map(timeout=)``
        raises instead of hanging, and ``terminate()`` still reaps every
        worker process."""
        pool = WorkerPool(2, None)
        try:
            pool.set_payload({"epoch": 0})
            assert pool.map(_pid, [0])
            with pytest.raises(multiprocessing.TimeoutError):
                pool.map(_kill_self, [0], timeout=5.0)
        finally:
            pool.terminate()
        assert multiprocessing.active_children() == []

    def test_respawned_worker_answers_with_current_payload(self):
        """The pool respawns a killed worker with its creation payload;
        its first task upgrades it to the epoch it died in, and the next
        swap reaches it like any other worker."""
        pool = WorkerPool(2, {"epoch": 0})
        try:
            pool.set_payload({"epoch": 1})
            assert pool.map(_pid, range(4))
            known = {child.pid for child in multiprocessing.active_children()}
            # killed mid-task, not idle: an idle worker may hold the task
            # queue's lock, and killing it would wedge the whole pool
            with pytest.raises(multiprocessing.TimeoutError):
                pool.map(_kill_self, [0], timeout=5.0)
            respawned = _wait_for_respawn(known)
            _assert_respawned_answers(pool, respawned, {"epoch": 1})
            pool.set_payload({"epoch": 2})
            _assert_respawned_answers(pool, respawned, {"epoch": 2})
        finally:
            # the killed task never completes, so close() would wait on it
            pool.terminate()
        assert multiprocessing.active_children() == []


def _assert_respawned_answers(pool, respawned, payload):
    """Map until a ``respawned`` pid answers; every answer is ``payload``."""
    for _round in range(5):
        answers = pool.map(_pid_and_payload, range(8), timeout=30.0)
        assert [got for _pid, got in answers] == [payload] * 8
        if respawned & {pid for pid, _got in answers}:
            return
    pytest.fail("the respawned worker never answered")


def _lane(_x):
    from repro.batch.pool import worker_lane

    return worker_lane()


def _emit_and_report(x):
    from repro.batch.pool import telemetry_active, worker_emit, worker_lane

    worker_emit("config", n=1, index=x)
    return (worker_lane(), telemetry_active())


class TestWorkerLanes:
    def test_lanes_cover_the_slot_range(self):
        from repro.batch.pool import LANE_BASE

        with WorkerPool(2, payload=None) as pool:
            lanes = set(pool.map(_lane, list(range(16))))
        assert lanes <= {LANE_BASE, LANE_BASE + 1}
        assert lanes  # at least one worker answered

    def test_lanes_stable_across_payload_epochs(self):
        from repro.batch.pool import LANE_BASE

        with WorkerPool(2, payload="a") as pool:
            before = set(pool.map(_lane, list(range(16))))
            pool.set_payload("b")
            after = set(pool.map(_lane, list(range(16))))
        assert before <= {LANE_BASE, LANE_BASE + 1}
        assert after <= {LANE_BASE, LANE_BASE + 1}


class TestTelemetry:
    def test_off_by_default(self):
        with WorkerPool(2, payload=None) as pool:
            assert pool.telemetry_queue is None
            results = pool.map(_emit_and_report, [0, 1, 2])
            assert pool.drain_telemetry() == []
        assert all(active is False for _lane_id, active in results)

    def test_events_carry_lane_and_fields(self):
        from repro.batch.pool import LANE_BASE

        with WorkerPool(2, payload=None, telemetry=True) as pool:
            results = pool.map(_emit_and_report, [0, 1, 2, 3])
            events = pool.drain_telemetry()
        assert all(active is True for _lane_id, active in results)
        assert len(events) == 4
        assert sorted(e["index"] for e in events) == [0, 1, 2, 3]
        for event in events:
            assert event["kind"] == "config"
            assert event["lane"] in (LANE_BASE, LANE_BASE + 1)
            assert event["n"] == 1
