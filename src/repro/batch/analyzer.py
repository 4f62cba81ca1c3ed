"""The :class:`BatchAnalyzer`: parallel drivers for the three analyses.

Parallel decomposition per method
---------------------------------

**Network Calculus** — the propagation is a wavefront over the port
graph: :func:`repro.network.port_graph.port_levels` groups the output
ports by longest-path depth, every port of one level is independent
given the previous levels' delays, so each level's ports fan across the
pool.  Workers hold a persistent :class:`NetworkCalculusAnalyzer`
(topology, port-flow sets, grouping tables) and receive only
``(port, entering buckets)`` pairs; the coordinator keeps the (cheap)
burst-inflation bookkeeping and assembles the result **in the
sequential topological order**, so the result is bit-identical to the
sequential analyzer's.

**Trajectory** — one fixed-point sweep walks every VL tree with a
frozen ``Smax`` map, and the walks of different VLs are independent
(see :meth:`TrajectoryAnalyzer.sweep_vls`).  The coordinator prepares
one analyzer (computing the Network Calculus seed exactly once), ships
the seed to every worker through the pool payload, and then fans each
sweep's VL chunks across workers that hold a fully *prepared* analyzer
— per-node busy-period horizons, meeting structures and serialization
terms are memoized inside each worker and reused across sweeps.
Between sweeps the coordinator runs the (sequential, cheap)
``tighten_smax`` contraction and broadcasts the cumulative tightened
entries with the next round of tasks, so every worker sweeps with the
exact ``Smax`` map the sequential analyzer would have used —
bit-identical bounds, sweep for sweep.

**Combined** — Network Calculus first (parallel), its result seeds the
parallel trajectory run (the seed the sequential path would recompute),
then the per-path minimum is taken on the coordinator.

``jobs=1`` never touches :mod:`multiprocessing`: every method delegates
to the sequential analyzer, which keeps the default CLI path exactly as
fast and exactly as deterministic as before the batch engine existed.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.curves import LeakyBucket
from repro.netcalc.analyzer import NetworkCalculusAnalyzer, analyze_network_calculus
from repro.netcalc.results import NetworkCalculusResult, PortAnalysis
from repro.network.port import PortId
from repro.network.port_graph import port_levels, topological_port_order
from repro.network.topology import Network
from repro.network.validation import check_network
from repro.obs.costmodel import (
    CostLedger,
    netcalc_cost_ledger,
    record_trajectory_sweep,
)
from repro.obs.instrument import Instrumentation
from repro.obs.logging import get_logger, kv
from repro.batch.pool import (
    WorkerPool,
    chunked,
    resolve_jobs,
    worker_emit,
    worker_persistent,
    worker_state,
)
from repro.core.combined import analyze_network, build_comparison
from repro.core.results import AnalysisResult
from repro.trajectory.analyzer import TrajectoryAnalyzer, analyze_trajectory
from repro.trajectory.results import TrajectoryPathBound, TrajectoryResult
from repro.trajectory.timing import FlowPortKey, seed_smax_from_netcalc

__all__ = ["BatchAnalyzer"]

_LOG = get_logger("batch")


@dataclass
class _Payload:
    """Everything a worker needs, delivered once per process (or once
    per epoch when a warm pool switches configs)."""

    network: Network
    grouping: bool = True
    frame_overhead_bytes: float = 0.0
    serialization: object = True
    smax_seed: Optional[Dict[FlowPortKey, float]] = None
    incremental: bool = False
    cache_dir: Optional[str] = None
    trajectory_kernel: Optional[str] = None


def _worker_cache(payload: _Payload):
    """One per-process :class:`BoundCache` (None when not incremental).

    Workers of one pool cannot share Python objects, so each process
    opens its own cache; a ``cache_dir`` makes them share entries
    through the disk layer (safe: writes are atomic and entries are
    content-addressed, so concurrent writers only ever duplicate work,
    never corrupt results).  The cache is *persistent* worker state: it
    survives payload epochs, so a warm pool re-used across configs
    keeps serving its in-memory entries — content addressing makes
    cross-config hits sound by construction.
    """
    if not payload.incremental:
        return None
    cache_dir = payload.cache_dir

    def build():
        from repro.incremental.cache import BoundCache

        return BoundCache(cache_dir=cache_dir)

    return worker_persistent(f"bound_cache:{cache_dir}", build)


def _build_nc_analyzer(payload: _Payload) -> NetworkCalculusAnalyzer:
    return NetworkCalculusAnalyzer(
        payload.network,
        grouping=payload.grouping,
        frame_overhead_bytes=payload.frame_overhead_bytes,
        incremental=payload.incremental,
        cache=_worker_cache(payload),
    )


def _nc_worker(
    task: List[Tuple[PortId, Dict[str, LeakyBucket]]]
) -> Tuple[List[Tuple[PortId, PortAnalysis]], int, float]:
    """Analyze one chunk of a propagation level.

    Returns ``(analyses, pid, busy seconds)`` — the pid keys the
    per-worker busy accounting that becomes the synthetic worker lanes
    of the ``--trace`` export.
    """
    import os

    analyzer = worker_state("netcalc", _build_nc_analyzer)
    if task:
        worker_emit("heartbeat", at=str(task[0][0]))
    start = time.perf_counter()
    out = [
        (port_id, analyzer.analyze_port_cached(port_id, buckets))
        for port_id, buckets in task
    ]
    busy = time.perf_counter() - start
    worker_emit("chunk", phase="netcalc", n=len(task))
    return out, os.getpid(), busy


def _build_trajectory_analyzer(payload: _Payload) -> TrajectoryAnalyzer:
    analyzer = TrajectoryAnalyzer(
        payload.network,
        serialization=payload.serialization,
        refine_smax=False,
        incremental=payload.incremental,
        cache=_worker_cache(payload),
        kernel=payload.trajectory_kernel,
    )
    analyzer.prepare(smax_seed=payload.smax_seed)
    return analyzer


def _trajectory_worker(
    task: Tuple[List[str], Dict[FlowPortKey, float]]
) -> Tuple[Dict[FlowPortKey, TrajectoryPathBound], Dict[str, Tuple[int, int]], int, float]:
    """Sweep one VL chunk with the coordinator's current ``Smax`` map.

    The second task element is the *cumulative* set of entries the
    coordinator tightened since the seed; applying it is idempotent, so
    a worker that missed a sweep (received no task that round) catches
    up on its next task.  Returns ``(prefix bounds, cache stats, pid,
    busy seconds)`` — the pid keys the per-worker cache statistics on
    the coordinator.
    """
    import os

    chunk, smax_updates = task
    analyzer = worker_state("trajectory", _build_trajectory_analyzer)
    if smax_updates:
        analyzer.apply_smax_updates(smax_updates)
    if chunk:
        worker_emit("heartbeat", at=str(chunk[0]))
    start = time.perf_counter()
    bounds = analyzer.sweep_vls(chunk)
    busy = time.perf_counter() - start
    worker_emit("chunk", phase="trajectory", n=len(chunk))
    return bounds, analyzer.cache_stats(), os.getpid(), busy


@contextmanager
def _borrowed(pool: WorkerPool):
    """Context manager over a pool the caller owns: never closes it."""
    yield pool


@dataclass
class _PoolStats:
    """Worker accounting for one parallel phase."""

    tasks: int = 0
    busy_s: float = 0.0
    wall_s: float = 0.0
    jobs: int = 1
    cache_stats: Dict[int, Dict[str, Tuple[int, int]]] = field(default_factory=dict)
    worker_busy: Dict[int, float] = field(default_factory=dict)
    # execution shape (manifest gauges; non-deterministic by design)
    pool_reused: int = 0
    start_method: str = ""
    pool_epoch: int = 0

    def record_pool(self, pool: WorkerPool, external: bool) -> None:
        """Capture the pool's shape at phase start (epoch, borrow)."""
        self.pool_reused = int(external)
        self.start_method = pool.start_method
        self.pool_epoch = pool.epochs_served

    def record_task(self, pid: int, busy: float) -> None:
        self.tasks += 1
        self.busy_s += busy
        self.worker_busy[pid] = self.worker_busy.get(pid, 0.0) + busy

    def worker_lanes(self) -> List[float]:
        """Per-worker busy milliseconds, pid-agnostic (sorted by pid)."""
        return [
            round(self.worker_busy[pid] * 1e3, 3)
            for pid in sorted(self.worker_busy)
        ]

    @property
    def utilization(self) -> float:
        if self.wall_s <= 0.0 or self.jobs < 1:
            return 0.0
        return min(1.0, self.busy_s / (self.wall_s * self.jobs))

    def merged_cache_stats(self) -> Dict[str, Tuple[int, int]]:
        """Final per-worker cache counters summed across workers."""
        totals: Dict[str, List[int]] = {}
        for per_worker in self.cache_stats.values():
            for name, (hits, misses) in per_worker.items():
                slot = totals.setdefault(name, [0, 0])
                slot[0] += hits
                slot[1] += misses
        return {name: (h, m) for name, (h, m) in totals.items()}


class BatchAnalyzer:
    """Parallel front-end over the sequential analyzers.

    Parameters
    ----------
    network:
        The configuration to analyze (not mutated).
    jobs:
        Worker process count.  ``1`` (the default) delegates to the
        sequential analyzers — no pool, bit-identical, zero overhead.
        ``0`` means one worker per CPU core.
    grouping / frame_overhead_bytes:
        Forwarded to the Network Calculus analyzer.
    serialization / refine_smax / max_refinements / trajectory_kernel:
        Forwarded to the Trajectory analyzer (coordinator and every
        worker; bounds are bit-identical for either kernel).
    collect_stats / progress:
        Observability (:mod:`repro.obs`): when enabled, worker
        utilization, chunk counts and per-worker cache hit-rates land
        in the result's ``stats`` field (and from there in the run
        manifest).
    incremental / cache_dir:
        Serve per-port analyses and per-VL walks from the
        content-addressed bound cache (:mod:`repro.incremental`).  With
        workers, each process opens its own cache on ``cache_dir``
        (persistence makes them share entries); results stay
        bit-identical for any ``jobs``.
    explain:
        Attach bound provenance ledgers (:mod:`repro.explain`) to the
        results.  The provenance replay always runs on the coordinator
        — workers only ever compute bounds — and the ledgers are
        identical for any ``jobs`` because the bounds they decompose
        are.
    pool:
        An existing warm :class:`WorkerPool` to reuse instead of
        creating (and tearing down) one per phase.  The analyzer swaps
        its payload in via :meth:`WorkerPool.set_payload` — workers
        keep their persistent state (bound caches) — and never closes
        it; the caller owns its lifecycle.  ``jobs`` is taken from the
        pool.
    """

    def __init__(
        self,
        network: Network,
        jobs: int = 1,
        grouping: bool = True,
        frame_overhead_bytes: float = 0.0,
        serialization: object = True,
        refine_smax: bool = True,
        max_refinements: int = 8,
        collect_stats: bool = False,
        progress=None,
        incremental: bool = False,
        cache_dir: Optional[str] = None,
        explain: bool = False,
        trajectory_kernel: Optional[str] = None,
        pool: Optional[WorkerPool] = None,
    ) -> None:
        self.network = network
        self.jobs = pool.jobs if pool is not None else resolve_jobs(jobs)
        self.grouping = grouping
        self.frame_overhead_bytes = frame_overhead_bytes
        self.serialization = serialization
        self.refine_smax = refine_smax
        self.max_refinements = max_refinements
        self.explain = explain
        self.trajectory_kernel = trajectory_kernel
        self.collect_stats = collect_stats
        self._progress = progress
        self.incremental = incremental or cache_dir is not None
        self.cache_dir = str(cache_dir) if cache_dir is not None else None
        self._external_pool = pool
        self._cache = None
        if self.incremental:
            from repro.incremental.cache import BoundCache

            self._cache = BoundCache(cache_dir=self.cache_dir)

    def _pool_for(self, payload: _Payload):
        """One phase's pool: the external warm pool (payload swapped
        in, never closed) or a fresh owned one (context-managed)."""
        if self._external_pool is not None:
            pool = self._external_pool
            pool.set_payload(payload)
            return _borrowed(pool)
        return WorkerPool(self.jobs, payload)

    # ------------------------------------------------------------------
    # Network Calculus
    # ------------------------------------------------------------------

    def network_calculus(self) -> NetworkCalculusResult:
        """Level-parallel Network Calculus propagation."""
        if self.jobs == 1:
            return analyze_network_calculus(
                self.network,
                grouping=self.grouping,
                frame_overhead_bytes=self.frame_overhead_bytes,
                collect_stats=self.collect_stats,
                progress=self._progress,
                incremental=self.incremental,
                cache=self._cache,
                explain=self.explain,
            )
        network = self.network
        obs = Instrumentation.create(self.collect_stats, self._progress)
        check_network(network)
        order = topological_port_order(network)
        levels = port_levels(network)
        coordinator = NetworkCalculusAnalyzer(
            network,
            grouping=self.grouping,
            frame_overhead_bytes=self.frame_overhead_bytes,
        )
        entering = coordinator.ingress_buckets()
        analyses: Dict[PortId, PortAnalysis] = {}
        stats = _PoolStats(jobs=self.jobs)
        payload = _Payload(
            network=network,
            grouping=self.grouping,
            frame_overhead_bytes=self.frame_overhead_bytes,
            incremental=self.incremental,
            cache_dir=self.cache_dir,
        )
        progress = obs.progress
        started = time.perf_counter()
        with obs.tracer.span(
            "batch.netcalc", jobs=self.jobs, n_ports=len(order), n_levels=len(levels)
        ) as phase_span:
            with self._pool_for(payload) as pool:
                stats.record_pool(pool, pool is self._external_pool)
                done = 0
                for level in levels:
                    tasks = chunked(
                        [
                            (
                                port_id,
                                {
                                    name: entering[(name, port_id)]
                                    for name in sorted(network.vls_at_port(port_id))
                                },
                            )
                            for port_id in level
                        ],
                        self.jobs * 2,
                    )
                    for chunk_result, pid, busy in pool.map(_nc_worker, tasks):
                        stats.record_task(pid, busy)
                        for port_id, analysis in chunk_result:
                            analyses[port_id] = analysis
                    # burst inflation stays on the coordinator: one
                    # writer per (flow, port) entry, so order is free
                    for port_id in level:
                        coordinator.propagate_port(
                            entering, port_id, analyses[port_id].delay_us
                        )
                    done += len(level)
                    if progress:
                        progress.update("batch.netcalc", done, len(order))
            if obs.enabled:
                phase_span.attrs["workers"] = stats.worker_lanes()
                phase_span.attrs["start_method"] = stats.start_method
                phase_span.attrs["pool_reused"] = stats.pool_reused
        stats.wall_s = time.perf_counter() - started

        result = NetworkCalculusResult(grouping=self.grouping)
        for port_id in order:  # sequential insertion order, bit for bit
            result.ports[port_id] = analyses[port_id]
        port_delay = {port_id: analyses[port_id].delay_us for port_id in order}
        coordinator.finalize_paths(result, port_delay)
        if self.explain:
            with obs.tracer.span("batch.netcalc.explain"):
                coordinator._attach_provenance(result)
        if obs.enabled:
            self._export_pool_stats(obs, "netcalc", stats)
            ledger = netcalc_cost_ledger(result)
            exported = obs.export()
            exported["cost"] = ledger.to_dict()
            result.stats = exported
        _LOG.debug(
            "batch netcalc done %s",
            kv(jobs=self.jobs, ports=len(order), levels=len(levels), tasks=stats.tasks),
        )
        return result

    # ------------------------------------------------------------------
    # Trajectory
    # ------------------------------------------------------------------

    def trajectory(
        self, smax_seed: Optional[Dict[FlowPortKey, float]] = None
    ) -> TrajectoryResult:
        """Parallel trajectory fixed point (per-VL sweep fan-out)."""
        if self.jobs == 1:
            return analyze_trajectory(
                self.network,
                serialization=self.serialization,
                refine_smax=self.refine_smax,
                max_refinements=self.max_refinements,
                collect_stats=self.collect_stats,
                progress=self._progress,
                incremental=self.incremental,
                cache=self._cache,
                explain=self.explain,
                kernel=self.trajectory_kernel,
            )
        network = self.network
        obs = Instrumentation.create(self.collect_stats, self._progress)
        coordinator = TrajectoryAnalyzer(
            network,
            serialization=self.serialization,
            refine_smax=self.refine_smax,
            max_refinements=self.max_refinements,
            kernel=self.trajectory_kernel,
        )
        coordinator.prepare(smax_seed=smax_seed)
        # same walk order as the sequential sweep; chunked contiguously
        vl_names = list(network.virtual_links)
        chunks = chunked(vl_names, self.jobs * 4)
        cumulative: Dict[FlowPortKey, float] = {}
        bounds: Dict[FlowPortKey, TrajectoryPathBound] = {}
        sweeps = 0
        stats = _PoolStats(jobs=self.jobs)
        progress = obs.progress
        started = time.perf_counter()
        payload = _Payload(
            network=network,
            serialization=self.serialization,
            smax_seed=coordinator.smax_snapshot(),
            incremental=self.incremental,
            cache_dir=self.cache_dir,
            trajectory_kernel=self.trajectory_kernel,
        )
        ledger = CostLedger("trajectory") if self.collect_stats else None
        with obs.tracer.span(
            "batch.trajectory",
            jobs=self.jobs,
            n_vls=len(vl_names),
            n_chunks=len(chunks),
        ) as phase_span:
            with self._pool_for(payload) as pool:
                stats.record_pool(pool, pool is self._external_pool)
                for _ in range(self.max_refinements):
                    if self.explain:
                        # the map this round's workers sweep with: the
                        # seed plus every tightening broadcast so far
                        coordinator._explain_smax = coordinator.smax_snapshot()
                    tasks = [(chunk, dict(cumulative)) for chunk in chunks]
                    bounds = {}
                    for chunk_bounds, cache_stats, pid, busy in pool.map(
                        _trajectory_worker, tasks
                    ):
                        stats.record_task(pid, busy)
                        stats.cache_stats[pid] = cache_stats
                        bounds.update(chunk_bounds)
                    sweeps += 1
                    if progress:
                        progress.update("batch.trajectory.sweep", sweeps, sweeps)
                    stable = True
                    n_updates = 0
                    if self.refine_smax:
                        updates, _ = coordinator.tighten_smax(bounds)
                        stable = not updates
                        n_updates = len(updates)
                        cumulative.update(updates)
                    if ledger is not None:
                        # the merged chunk bounds equal the sequential
                        # sweep's map bit for bit, so the ledger is
                        # identical for any --jobs N
                        record_trajectory_sweep(
                            ledger, bounds, smax_updates=n_updates
                        )
                    if stable:
                        break
            if obs.enabled:
                phase_span.attrs["workers"] = stats.worker_lanes()
                phase_span.attrs["start_method"] = stats.start_method
                phase_span.attrs["pool_reused"] = stats.pool_reused
        stats.wall_s = time.perf_counter() - started

        result = coordinator.build_result(bounds, sweeps)
        if ledger is not None:
            ledger.add_work("paths_bound", len(result.paths))
            ledger.record_runtime("pool_reused", stats.pool_reused)
            ledger.record_runtime("workers", stats.jobs)
        if self.explain:
            coordinator._explain_bounds = bounds
            with obs.tracer.span("batch.trajectory.explain"):
                coordinator._attach_provenance(result)
        if obs.enabled:
            obs.metrics.counter("trajectory.sweeps", sweeps)
            for name, (hits, misses) in sorted(stats.merged_cache_stats().items()):
                obs.metrics.counter(f"trajectory.{name}_cache_hits", hits)
                obs.metrics.counter(f"trajectory.{name}_cache_misses", misses)
                if ledger is not None:
                    ledger.record_cache(name, hits, misses)
            self._export_pool_stats(obs, "trajectory", stats)
            exported = obs.export()
            if ledger is not None:
                exported["cost"] = ledger.to_dict()
            result.stats = exported
        _LOG.debug(
            "batch trajectory done %s",
            kv(jobs=self.jobs, sweeps=sweeps, paths=len(result.paths)),
        )
        return result

    # ------------------------------------------------------------------
    # Combined
    # ------------------------------------------------------------------

    def combined(self) -> AnalysisResult:
        """Both analyses (parallel) and their per-path minimum.

        One worker pool serves both phases: the trajectory phase swaps
        its payload into the pool the NC phase warmed up (a payload
        epoch) instead of forking a second set of processes.
        """
        if self.jobs == 1:
            return analyze_network(
                self.network,
                grouping=self.grouping,
                serialization=self.serialization,
                refine_smax=self.refine_smax,
                collect_stats=self.collect_stats,
                progress=self._progress,
                explain=self.explain,
                trajectory_kernel=self.trajectory_kernel,
            )
        own_pool: Optional[WorkerPool] = None
        if self._external_pool is None:
            own_pool = WorkerPool(self.jobs, None)
            self._external_pool = own_pool
        try:
            nc_result = self.network_calculus()
            # the sequential path seeds Smax from a grouping=True NC
            # run; reuse ours when it matches, otherwise let the
            # trajectory coordinator compute its own grouped seed
            seed = (
                seed_smax_from_netcalc(self.network, nc_result)
                if self.grouping
                else None
            )
            trajectory_result = self.trajectory(smax_seed=seed)
        except BaseException:
            if own_pool is not None:
                self._external_pool = None
                own_pool.terminate()
                own_pool = None
            raise
        finally:
            if own_pool is not None:
                self._external_pool = None
                own_pool.close()
        return build_comparison(nc_result, trajectory_result)

    # ------------------------------------------------------------------

    def _export_pool_stats(
        self, obs: Instrumentation, phase: str, stats: _PoolStats
    ) -> None:
        metrics = obs.metrics
        metrics.gauge(f"batch.{phase}.jobs", stats.jobs)
        metrics.counter(f"batch.{phase}.tasks", stats.tasks)
        metrics.counter(f"batch.{phase}.worker_busy_ms", round(stats.busy_s * 1e3, 3))
        metrics.gauge(f"batch.{phase}.wall_ms", round(stats.wall_s * 1e3, 3))
        metrics.gauge(
            f"batch.{phase}.worker_utilization", round(stats.utilization, 4)
        )
        # execution shape: gauges must be numeric (manifest contract),
        # so the start method is encoded as its fork-ness and the full
        # string rides the phase span / INFO log
        metrics.gauge(f"batch.{phase}.pool_reused", stats.pool_reused)
        metrics.gauge(
            f"batch.{phase}.start_method_fork",
            int(stats.start_method == "fork"),
        )
        metrics.gauge(f"batch.{phase}.pool_epoch", stats.pool_epoch)
