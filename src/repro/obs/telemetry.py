"""Live fleet telemetry: worker heartbeats rendered as one status line.

The batch engine's ``--progress`` view used to be coordinator-only: a
``pool.map`` call blocks until a whole chunk wave completes, so a
200-config corpus sweep was a black box between waves.  This module
closes the loop — workers push small structured events (dicts) through
the pool's telemetry queue (:func:`repro.batch.pool.worker_emit`), a
:class:`TelemetryDrain` thread on the coordinator consumes them *while
the map call blocks*, and a :class:`FleetView` folds them into a live
one-line view: configs/sec throughput, ETA, cache hit rate, and
per-worker lane tallies (the same ``w100+`` lanes the log prefix
uses).

Event grammar (deliberately loose — a dict with a ``kind``):

``{"kind": "config", "lane": 101, "n": 1, "cache_hits": 3, ...}``
    One or more configurations finished on a lane; optional cache
    tallies fold into the aggregate hit rate.
``{"kind": "heartbeat", "lane": 101, "at": "SW1.out3"}``
    A worker announcing what it is chewing on — surfaces stragglers
    (the lane's marker goes stale while other lanes advance).

Everything here is *volatile shell* in the run-history sense: the
:meth:`FleetView.snapshot` lands in ``report.stats["fleet"]`` and the
history record's ``execution`` section, never in the deterministic
core — bounds are finished long before any of this is looked at.
"""

from __future__ import annotations

import sys
import threading
import time
from typing import Callable, Dict, Optional

__all__ = ["FleetView", "TelemetryDrain", "STOP_EVENT_KIND", "fleet_drain"]

#: ``kind`` of the sentinel the coordinator enqueues to stop a drain.
STOP_EVENT_KIND = "__stop__"


class FleetView:
    """Aggregates worker events into a live single-line fleet view.

    Parameters
    ----------
    total:
        Expected unit count (configurations) — drives the ETA.
    stream:
        Where the live line goes (default ``sys.stderr``).  Pass an
        :class:`io.StringIO` in tests; pass ``None`` explicitly for
        stderr.
    min_interval_s:
        Render rate limit; events always aggregate, the line only
        redraws this often (matches ``ProgressHook``'s throttling).
    clock:
        Monotonic time source, injectable for deterministic tests.
    """

    def __init__(
        self,
        total: int,
        stream=None,
        min_interval_s: float = 0.2,
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        self.total = max(0, int(total))
        self.stream = stream if stream is not None else sys.stderr
        self.min_interval_s = min_interval_s
        self._clock = clock
        self._started = clock()
        self._last_render: Optional[float] = None
        self.done = 0
        self.events = 0
        self.cache_hits = 0
        self.cache_misses = 0
        #: configurations completed per worker lane (lane id -> count)
        self.lanes: Dict[int, int] = {}
        #: last heartbeat marker per lane (what the worker is chewing on)
        self.current: Dict[int, str] = {}
        self.renders = 0

    # -- event folding -------------------------------------------------

    def handle(self, event: Dict[str, object]) -> None:
        """Fold one worker event in and (rate-limited) redraw the line."""
        if not isinstance(event, dict):
            return
        self.events += 1
        kind = event.get("kind")
        lane = event.get("lane")
        lane = int(lane) if isinstance(lane, int) and lane >= 0 else None
        if kind == "config":
            n = int(event.get("n", 1))
            self.done += n
            if lane is not None:
                self.lanes[lane] = self.lanes.get(lane, 0) + n
                self.current.pop(lane, None)
            self.cache_hits += int(event.get("cache_hits", 0))
            self.cache_misses += int(event.get("cache_misses", 0))
        elif kind == "heartbeat" and lane is not None:
            at = event.get("at")
            if at is not None:
                self.current[lane] = str(at)
        self.render()

    # -- derived rates -------------------------------------------------

    @property
    def elapsed_s(self) -> float:
        return max(0.0, self._clock() - self._started)

    @property
    def throughput(self) -> float:
        """Configurations per second since the view started."""
        elapsed = self.elapsed_s
        return self.done / elapsed if elapsed > 0 else 0.0

    @property
    def eta_s(self) -> Optional[float]:
        """Seconds to completion at the current rate (None before data)."""
        rate = self.throughput
        if rate <= 0 or self.total <= 0:
            return None
        return max(0.0, (self.total - self.done) / rate)

    @property
    def cache_hit_rate(self) -> Optional[float]:
        lookups = self.cache_hits + self.cache_misses
        return self.cache_hits / lookups if lookups else None

    # -- rendering -----------------------------------------------------

    def render_line(self) -> str:
        """The current fleet status line (no carriage return)."""
        parts = [f"fleet {self.done}/{self.total} cfg"]
        parts.append(f"{self.throughput:.1f} cfg/s")
        eta = self.eta_s
        if eta is not None:
            parts.append(f"eta {eta:.0f}s")
        hit_rate = self.cache_hit_rate
        if hit_rate is not None:
            parts.append(f"cache {hit_rate * 100:.0f}%")
        if self.lanes:
            lanes = " ".join(
                f"w{lane}:{self.lanes[lane]}" for lane in sorted(self.lanes)
            )
            parts.append(lanes)
        stragglers = sorted(set(self.current) - set(self.lanes))
        if stragglers:
            parts.append(
                "at " + " ".join(
                    f"w{lane}={self.current[lane]}" for lane in stragglers
                )
            )
        return " | ".join(parts)

    def render(self, force: bool = False) -> None:
        now = self._clock()
        if (
            not force
            and self._last_render is not None
            and now - self._last_render < self.min_interval_s
        ):
            return
        self._last_render = now
        self.renders += 1
        print(f"\r{self.render_line()}", end="", file=self.stream, flush=True)

    def close(self) -> None:
        """Final forced render plus the newline that releases the line."""
        self.render(force=True)
        print(file=self.stream, flush=True)

    # -- persistence ---------------------------------------------------

    def snapshot(self) -> Dict[str, object]:
        """Summary dict for ``report.stats['fleet']`` / run history."""
        hit_rate = self.cache_hit_rate
        return {
            "events": self.events,
            "configs_done": self.done,
            "configs_total": self.total,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "cache_hit_rate": (
                round(hit_rate, 4) if hit_rate is not None else None
            ),
            "lanes": {
                str(lane): self.lanes[lane] for lane in sorted(self.lanes)
            },
            "throughput_cfg_s": round(self.throughput, 3),
        }


class TelemetryDrain:
    """Daemon thread pumping a pool telemetry queue into a handler.

    The coordinator starts a drain *before* the blocking ``pool.map``
    call and stops it after — events emitted mid-wave reach the
    :class:`FleetView` (or any callable) live.  :meth:`stop` enqueues a
    sentinel (:data:`STOP_EVENT_KIND`) so the blocking ``get`` wakes
    deterministically; events already queued ahead of the sentinel are
    still delivered.
    """

    def __init__(
        self, queue, handler: Callable[[Dict[str, object]], None]
    ) -> None:
        self.queue = queue
        self.handler = handler
        self.events = 0
        self._thread = threading.Thread(
            target=self._run, name="repro-telemetry-drain", daemon=True
        )

    def start(self) -> "TelemetryDrain":
        self._thread.start()
        return self

    def _run(self) -> None:
        while True:
            try:
                event = self.queue.get()
            except (OSError, EOFError):
                break
            if (
                isinstance(event, dict)
                and event.get("kind") == STOP_EVENT_KIND
            ):
                break
            self.events += 1
            try:
                self.handler(event)
            except Exception:  # a bad render must not kill the drain
                continue

    def stop(self, timeout: float = 5.0) -> None:
        """Unblock and join the drain thread (idempotent)."""
        if not self._thread.is_alive():
            return
        try:
            self.queue.put({"kind": STOP_EVENT_KIND})
        except (OSError, ValueError):
            pass
        self._thread.join(timeout)

    def __enter__(self) -> "TelemetryDrain":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()


def fleet_drain(pool, progress, total: int):
    """A started ``(FleetView, TelemetryDrain)`` pair for one fan-out.

    The live view activates only when both halves exist: the pool has
    a telemetry queue (created with ``telemetry=True``, or a borrowed
    warm pool whose owner opened one) *and* the caller asked for
    progress.  Returns ``(None, None)`` otherwise, so call sites stay
    one-liners.  The caller must ``drain.stop()`` and ``view.close()``
    when the map completes.
    """
    queue = getattr(pool, "telemetry_queue", None)
    if queue is None or progress is None:
        return None, None
    view = FleetView(total)
    drain = TelemetryDrain(queue, view.handle).start()
    return view, drain
