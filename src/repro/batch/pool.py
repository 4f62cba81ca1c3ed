"""Worker-pool plumbing shared by the batch engine.

A thin, deterministic wrapper over :class:`multiprocessing.pool.Pool`:

* **fork first** — the coordinator prefers the ``fork`` start method so
  workers inherit the (read-only) network topology for free; on
  platforms without it the fallback start method is logged at INFO and
  the payload travels pickled through the ``spawn`` initializer
  instead.  Either way each worker loads the payload once per epoch,
  not once per task.
* **persistent per-worker state** — the initializer parks the payload
  in a module global; task functions lazily build whatever expensive
  state they need from it (a prepared analyzer, cached port-flow sets)
  and reuse it across every task the worker receives.
* **warm reuse across configs** — :meth:`WorkerPool.set_payload` swaps
  the payload without restarting the workers.  Each swap starts a new
  *epoch*: the payload is pickled once to bytes, every task carries the
  epoch tag and those bytes, and a worker seeing a newer tag unpickles
  the payload and drops its epoch-scoped state while keeping the
  *persistent* state (:func:`worker_persistent`) — per-worker bound
  caches survive config switches, which is what makes a corpus sweep
  warm.
* **ordered results** — ``map()`` returns results in task-submission
  order regardless of which worker finished first, so merging is
  deterministic by construction.
* **error transparency** — the analysis exceptions
  (:mod:`repro.errors`) are picklable; a worker raising one surfaces
  unchanged in the coordinator, where the CLI's existing handler maps
  it to exit codes 3/4/5.

The pool deliberately exposes only what the batch engine needs; it is
not a general task framework.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
from typing import Any, Callable, Iterable, List, Optional, Sequence, Tuple, TypeVar

from repro.obs.logging import get_logger, kv, set_worker_lane

__all__ = [
    "LANE_BASE",
    "WorkerPool",
    "chunked",
    "resolve_jobs",
    "telemetry_active",
    "worker_emit",
    "worker_lane",
    "worker_payload",
    "worker_persistent",
    "worker_state",
]

T = TypeVar("T")

_LOG = get_logger("batch")

#: First worker-lane id.  Must match the Chrome-trace export's
#: synthetic worker tid base (``repro.obs.tracefile._WORKER_TID_BASE``)
#: so a ``[w101]`` log line, a lane-101 telemetry event and the tid-101
#: trace lane all name the same worker slot.
LANE_BASE = 100

#: Payload slot filled by :func:`_init_worker` in every pool process.
_WORKER_PAYLOAD: Optional[Any] = None
#: Lazily-built per-worker state, keyed by task family (see ``worker_state``).
#: Cleared on every payload epoch — it derives from the payload.
_WORKER_STATE: dict = {}
#: Per-worker state that *survives* payload epochs (bound caches keyed
#: by cache directory); cleared only when the worker process dies.
_WORKER_PERSISTENT: dict = {}
#: Epoch of the payload currently loaded in this worker (-1 = none).
_WORKER_EPOCH: int = -1
#: This process's worker-lane id (None on the coordinator / before init).
_WORKER_LANE: Optional[int] = None
#: Telemetry queue back to the coordinator (None when telemetry is off).
_WORKER_TELEMETRY: Optional[Any] = None


def _init_worker(
    epoch: int, payload: Any, lane_counter: Any = None, telemetry: Any = None
) -> None:
    global _WORKER_PAYLOAD, _WORKER_EPOCH, _WORKER_LANE, _WORKER_TELEMETRY
    _WORKER_PAYLOAD = payload
    _WORKER_EPOCH = epoch
    _WORKER_STATE.clear()
    _WORKER_PERSISTENT.clear()
    if lane_counter is not None:
        # first-come lane claim: each pool process takes the next slot
        # (LANE_BASE + index).  Lanes are identities of *slots*, not
        # pids; workers persist across payload epochs, so log prefixes
        # and trace tids stay stable across them.
        with lane_counter.get_lock():
            index = lane_counter.value
            lane_counter.value = index + 1
        _WORKER_LANE = LANE_BASE + index
        set_worker_lane(_WORKER_LANE)
    _WORKER_TELEMETRY = telemetry


def worker_lane() -> Optional[int]:
    """This worker's lane id (``LANE_BASE + slot``), or None outside one."""
    return _WORKER_LANE


def telemetry_active() -> bool:
    """True when this worker has a live telemetry queue.

    Lets task functions skip telemetry-only bookkeeping (e.g. cache
    counter deltas per config) when nobody is listening.
    """
    return _WORKER_TELEMETRY is not None


def worker_emit(kind: str, **fields: Any) -> None:
    """Send one telemetry event to the coordinator (no-op when off).

    Events are plain dicts — ``kind`` plus the worker's lane and pid,
    plus whatever ``fields`` the caller adds (see
    :mod:`repro.obs.telemetry` for the grammar the fleet view folds).
    Strictly fire-and-forget: a full or broken queue drops the event
    rather than perturbing the analysis.
    """
    queue = _WORKER_TELEMETRY
    if queue is None:
        return
    event = {"kind": str(kind), "lane": _WORKER_LANE, "pid": os.getpid()}
    event.update(fields)
    try:
        queue.put(event)
    except (OSError, ValueError):
        pass


def _ensure_epoch(epoch: int, blob: Optional[bytes]) -> None:
    """Load the payload when a task carries a newer epoch tag.

    ``blob`` is the epoch's pickled payload (None for epoch 0, which the
    initializer delivered).  A respawned worker (after a crash)
    self-heals here too: its initializer installed the pool-creation
    payload, and the first task it receives upgrades it.
    """
    global _WORKER_PAYLOAD, _WORKER_EPOCH
    if epoch == _WORKER_EPOCH:
        return
    if blob is not None:
        _WORKER_PAYLOAD = pickle.loads(blob)
    _WORKER_EPOCH = epoch
    _WORKER_STATE.clear()


def _run_task(wrapped: Tuple[int, Optional[bytes], Callable[[Any], T], Any]) -> T:
    epoch, blob, func, task = wrapped
    _ensure_epoch(epoch, blob)
    return func(task)


def worker_payload() -> Any:
    """The payload the coordinator shipped to this worker process."""
    return _WORKER_PAYLOAD


def worker_state(key: str, build: Callable[[Any], T]) -> T:
    """Per-worker memo: build once from the payload, reuse per task.

    Scoped to the payload *epoch* — a :meth:`WorkerPool.set_payload`
    swap clears it, since it derives from the payload.
    """
    try:
        return _WORKER_STATE[key]
    except KeyError:
        state = build(_WORKER_PAYLOAD)
        _WORKER_STATE[key] = state
        return state


def worker_persistent(key: str, build: Callable[[], T]) -> T:
    """Per-worker memo that survives payload epochs (e.g. bound caches)."""
    try:
        return _WORKER_PERSISTENT[key]
    except KeyError:
        state = build()
        _WORKER_PERSISTENT[key] = state
        return state


def resolve_jobs(jobs: Optional[int]) -> int:
    """Normalize a ``--jobs`` value: ``None``/``0`` means all cores."""
    if jobs is None or jobs == 0:
        return os.cpu_count() or 1
    if jobs < 0:
        raise ValueError(f"jobs must be >= 1 (or 0 for all cores), got {jobs}")
    return jobs


def chunked(items: Sequence[T], n_chunks: int) -> List[List[T]]:
    """Split ``items`` into at most ``n_chunks`` contiguous, balanced runs.

    Chunk sizes differ by at most one and concatenating the chunks
    reproduces ``items`` exactly — the property the coordinator relies
    on for deterministic merges.
    """
    if n_chunks < 1:
        raise ValueError(f"n_chunks must be >= 1, got {n_chunks}")
    items = list(items)
    n_chunks = min(n_chunks, len(items)) or 1
    base, extra = divmod(len(items), n_chunks)
    chunks: List[List[T]] = []
    start = 0
    for index in range(n_chunks):
        size = base + (1 if index < extra else 0)
        if size == 0:
            break
        chunks.append(items[start : start + size])
        start += size
    return chunks


class WorkerPool:
    """A process pool carrying one shared payload to every worker.

    Parameters
    ----------
    jobs:
        Worker process count (already resolved; must be >= 2 — a
        single-job run should bypass the pool entirely and call the
        sequential code path).
    payload:
        Arbitrary picklable object delivered once to each worker via
        the pool initializer; task functions read it back with
        :func:`worker_payload` / :func:`worker_state`.
    telemetry:
        Open a telemetry queue from the workers back to the
        coordinator: task functions may then call :func:`worker_emit`
        and the coordinator drains with :meth:`drain_telemetry` (or a
        live :class:`repro.obs.telemetry.TelemetryDrain` thread while a
        ``map`` blocks).  Off by default — events cost a queue put per
        emission.  Lane ids are assigned either way.
    """

    def __init__(
        self,
        jobs: int,
        payload: Any,
        *,
        telemetry: bool = False,
    ) -> None:
        if jobs < 2:
            raise ValueError(f"WorkerPool needs jobs >= 2, got {jobs}")
        self.jobs = jobs
        methods = multiprocessing.get_all_start_methods()
        self.start_method = "fork" if "fork" in methods else methods[0]
        if self.start_method != "fork":
            _LOG.info(
                "worker pool start method %s",
                kv(start_method=self.start_method, jobs=jobs, fork_available=False),
            )
        self._epoch = 0
        #: the current epoch's pickled payload; None for epoch 0, whose
        #: payload rides the initializer (free under ``fork``)
        self._payload_blob: Optional[bytes] = None
        self._context = multiprocessing.get_context(
            self.start_method if "fork" in methods else None
        )
        #: next free worker-lane slot; workers claim LANE_BASE + slot
        #: in their initializer
        self._lane_counter = self._context.Value("i", 0)
        self.telemetry_queue = (
            self._context.SimpleQueue() if telemetry else None
        )
        self._pool = self._context.Pool(
            processes=jobs,
            initializer=_init_worker,
            initargs=(
                self._epoch,
                payload,
                self._lane_counter,
                self.telemetry_queue,
            ),
        )

    def set_payload(self, payload: Any) -> None:
        """Swap the payload without restarting workers (new epoch).

        The payload is pickled once here; each task of the epoch
        carries the bytes, and a worker unpickles them on its first
        task of the epoch.
        """
        self._epoch += 1
        self._payload_blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)

    @property
    def epochs_served(self) -> int:
        """How many :meth:`set_payload` swaps this pool has absorbed."""
        return self._epoch

    def map(
        self,
        func: Callable[[Any], T],
        tasks: Iterable[Any],
        timeout: Optional[float] = None,
    ) -> List[T]:
        """Run ``func`` over ``tasks``; results in task order.

        A worker exception aborts the call and re-raises in the
        coordinator (pickled through the pool's result queue).  With
        ``timeout`` the call raises :class:`multiprocessing.TimeoutError`
        instead of hanging when a worker dies mid-task (a killed worker
        is respawned by the pool, but its in-flight task is lost).
        """
        blob = self._payload_blob
        wrapped = [(self._epoch, blob, func, task) for task in tasks]
        if timeout is None:
            return self._pool.map(_run_task, wrapped, chunksize=1)
        return self._pool.map_async(_run_task, wrapped, chunksize=1).get(timeout)

    def drain_telemetry(self) -> List[dict]:
        """Collect every telemetry event currently queued (non-blocking).

        Returns ``[]`` when telemetry is off.  Used between map waves —
        for *live* consumption while a map blocks, hand
        :attr:`telemetry_queue` to a
        :class:`repro.obs.telemetry.TelemetryDrain` instead.
        """
        queue = self.telemetry_queue
        if queue is None:
            return []
        events: List[dict] = []
        try:
            while not queue.empty():
                events.append(queue.get())
        except (OSError, EOFError):
            pass
        return events

    def close(self) -> None:
        self._pool.close()
        self._pool.join()
        self.drain_telemetry()

    def terminate(self) -> None:
        self._pool.terminate()
        self._pool.join()
        self.drain_telemetry()

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.close()
        else:
            self.terminate()
