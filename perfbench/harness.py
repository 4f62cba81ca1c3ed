"""Shared plumbing of the benchmark: timing, statistics, outcomes.

Nothing here imports :mod:`repro`; the workload modules do, after
``run.py`` has put the checkout's ``src/`` on the import path.
"""

from __future__ import annotations

import json
import math
import multiprocessing
import os
import resource
import signal
import statistics
import time
from contextlib import contextmanager
from multiprocessing import resource_tracker
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple, TypeVar

T = TypeVar("T")


def median(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("median of no samples")
    return float(statistics.median(values))


def percentile(values: Sequence[float], pct: float) -> float:
    """Linear-interpolated percentile (``pct`` in 0..100)."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * pct / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def supported_tail(n_samples: int) -> Optional[int]:
    """Highest whole percentile above the median with >= 10 samples beyond it."""
    if n_samples < 20:
        return None
    return min(99, math.floor(100.0 * (n_samples - 10) / n_samples))


def peak_rss_mb(children: bool = False) -> float:
    """High-water resident set of this process (or its reaped children)."""
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def stop_children() -> None:
    """Stop and reap every process this one started, helpers included.

    ``multiprocessing`` leaves its resource tracker (started by the first
    shared-memory segment) running until after the interpreter exits, so
    it is stopped here explicitly; any other child still alive is sent
    SIGTERM and waited for.
    """
    tracker = getattr(resource_tracker, "_resource_tracker", None)
    stop = getattr(tracker, "_stop", None)
    if stop is not None:
        stop()
    for process in multiprocessing.active_children():
        process.terminate()
        process.join()
    for pid in _child_pids():
        try:
            os.kill(pid, signal.SIGTERM)
        except ProcessLookupError:
            pass
        try:
            os.waitpid(pid, 0)
        except ChildProcessError:
            pass


def _child_pids() -> List[int]:
    """Pids whose parent is this process, read from ``/proc``."""
    me = os.getpid()
    pids: List[int] = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        # the command name in parentheses may hold spaces: split after it
        fields = stat[stat.rfind(")") + 2:].split()
        if len(fields) > 1 and int(fields[1]) == me:
            pids.append(int(entry.name))
    return pids


def timed(func: Callable[[], T]) -> Tuple[T, float]:
    """``(func(), seconds)`` on the monotonic clock."""
    started = time.perf_counter()
    value = func()
    return value, time.perf_counter() - started


#: Wall, in ms, that normalised times assume one ``reference()`` call takes.
REFERENCE_MS = 20.0
#: ``reference()`` calls before timing, so the interpreter has specialised it.
REFERENCE_WARMUP = 10


def reference() -> float:
    """A fixed pure-Python workload whose wall gauges the host's current speed.

    It runs no code of the program, so a change to the program cannot
    move it; only the host's speed does.
    """
    total = 0
    table: Dict[int, int] = {}
    for i in range(60000):
        key = i % 977
        table[key] = table.get(key, 0) + i * 3
        total += i % 13
    return float(total + max(table.values()))


def reference_s(_task: object = None) -> float:
    """Seconds one ``reference()`` call takes now (also a worker-pool task)."""
    return timed(reference)[1]


def reference_median_s(calls: int = 3) -> float:
    """Median seconds of ``calls`` back-to-back ``reference()`` calls."""
    return median([reference_s() for _ in range(calls)])


def warm_reference() -> None:
    for _ in range(REFERENCE_WARMUP):
        reference()


def normalised_ms(seconds: float, reference_before: float, reference_after: float) -> float:
    """``seconds`` of wall as ms on a host where ``reference()`` takes
    ``REFERENCE_MS``, gauged by the reference calls around the operation."""
    return seconds * REFERENCE_MS * 2.0 / (reference_before + reference_after)


def timed_normalised(func: Callable[[], T]) -> Tuple[T, float, float]:
    """``(func(), seconds, normalised ms)``, with a reference call either side."""
    before = reference_s()
    value, seconds = timed(func)
    return value, seconds, normalised_ms(seconds, before, reference_s())


def repeat_setup(
    build: Callable[[], T],
    discard: Callable[[T], None] = lambda _state: None,
    min_reps: int = 3,
    max_reps: int = 50,
    budget_s: float = 1.0,
) -> Tuple[T, List[float], List[float]]:
    """Run ``build`` several times; keep the last state.

    Returns the state, every set-up's wall in seconds and the same walls
    normalised (see ``normalised_ms``), in seconds. Cheap set-ups repeat
    until ``budget_s`` is spent (at most ``max_reps``), so their median
    is not a single noisy sample. Every state but the last is handed to
    ``discard``.
    """
    timings: List[float] = []
    normalised: List[float] = []
    state: Optional[T] = None
    while len(timings) < min_reps or (len(timings) < max_reps and math.fsum(timings) < budget_s):
        if state is not None:
            discard(state)
        state, seconds, seconds_ms = timed_normalised(build)
        timings.append(seconds)
        normalised.append(seconds_ms / 1000.0)
    return state, timings, normalised


@dataclass
class Context:
    """One benchmark invocation: where it runs and what it was asked."""

    work: Path
    seed: int
    seconds: float
    trace: bool


class Deadline:
    """The measured window of one run: ``--seconds`` on the monotonic clock."""

    def __init__(self, seconds: float) -> None:
        self.seconds = seconds
        self._start = time.perf_counter()

    def elapsed(self) -> float:
        return time.perf_counter() - self._start

    def expired(self) -> bool:
        return self.elapsed() >= self.seconds


class SpanLog:
    """Named durations recorded around calls into the program's layers.

    Spans are kept in memory and reduced when the run ends; a span name
    may repeat (one per sweep, one per edit...).
    """

    def __init__(self) -> None:
        self.spans: Dict[str, List[float]] = {}

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        started = time.perf_counter()
        try:
            yield
        finally:
            self.spans.setdefault(name, []).append(time.perf_counter() - started)

    def call(self, name: str, func: Callable[[], T]) -> T:
        with self.span(name):
            return func()

    def total(self, name: str) -> float:
        return math.fsum(self.spans.get(name, ()))

    def count(self, name: str) -> int:
        return len(self.spans.get(name, ()))


@dataclass
class Outcome:
    """What one workload run reports back to ``run.py``.

    ``metrics`` holds end-to-end values of an untraced run and
    ``layers`` per-layer values of a traced one, both by the names
    ``BENCHMARK.json`` gives them; ``report`` holds human-readable lines
    with sample counts; ``record`` holds the exact work counts and
    bounds digests that must repeat across runs of the same code and
    seed.
    """

    metrics: Dict[str, float] = field(default_factory=dict)
    layers: Dict[str, float] = field(default_factory=dict)
    report: List[str] = field(default_factory=list)
    record: Dict[str, object] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)

    def line(self, name: str, value: float, unit: str, samples: Optional[int] = None) -> None:
        count = "" if samples is None else f"  (n={samples})"
        self.report.append(f"  {name:<44}{value:>14.4f} {unit}{count}")

    def timing(self, name: str, values: Sequence[float], unit: str) -> None:
        """Report a timing family: median plus the best-supported tail."""
        self.line(f"{name}.p50", median(values), unit, len(values))
        tail = supported_tail(len(values))
        if tail is not None:
            self.line(f"{name}.p{tail}", percentile(values, tail), unit, len(values))

    def check(self, ok: bool, problem: str) -> None:
        """Count one checked operation; a failed check is a failed operation."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(problem)


def ratio(numerator: float, denominator: float) -> float:
    """``numerator / denominator``, 0 when there is no base."""
    return numerator / denominator if denominator else 0.0


class RecordBook:
    """Exact per-run records, compared across runs of the same code.

    Work counts and bounds digests are deterministic by contract, so a
    run with the same code digest, workload and seed as an earlier one,
    traced or not, must reproduce them exactly.
    """

    def __init__(self, path: Path) -> None:
        self.path = path

    def reconcile(self, key: str, record: Dict[str, object]) -> List[str]:
        """Store ``record`` under a new ``key``, or list how it differs from
        the one stored."""
        try:
            book = json.loads(self.path.read_text())
        except (OSError, ValueError):
            book = {}
        record = json.loads(json.dumps(record))
        previous = book.get(key)
        if previous is None:
            book[key] = record
            tmp = self.path.with_suffix(".tmp")
            tmp.write_text(json.dumps(book, indent=1, sort_keys=True))
            tmp.replace(self.path)
            return []
        return [
            f"{name} differs from an earlier run of this code"
            for name in sorted(set(previous) | set(record))
            if previous.get(name) != record.get(name)
        ]
