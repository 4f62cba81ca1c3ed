"""Soundness fuzzing at scale: the ``batch_sweep`` harness.

The ``random_network(589)`` bug was found by a single lucky property
test.  This module turns that one-off into a regression *class*: it
fans whole seeded configurations across the worker pool, runs both
analyses plus the frame-level simulator on each, and reports every path
where an observed delay exceeds a claimed worst-case bound.

A *claimed* bound here means a bound the repository asserts to be
sound: the Network Calculus bound and the ``serialization="safe"``
trajectory bound.  The historical ``paper``/``windowed`` reproduction
modes are documented-optimistic and are deliberately not fuzzed.

Each configuration is one task (embarrassingly parallel), so the
speedup is near-linear in ``jobs`` and a thousand-config sweep is a
lunch-break job instead of an overnight one.
"""

from __future__ import annotations

import time
from contextlib import nullcontext as _nullcontext
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.batch.pool import (
    WorkerPool,
    chunked,
    resolve_jobs,
    worker_emit,
    worker_payload,
)
from repro.configs.random_topology import random_network
from repro.core.combined import AnalysisOptions, run_analyses
from repro.errors import AnalysisError, ConfigurationError, UnstableNetworkError
from repro.obs.instrument import Instrumentation
from repro.obs.logging import get_logger, kv
from repro.obs.telemetry import fleet_drain
from repro.sim.scenarios import TrafficScenario, simulate

__all__ = [
    "SweepSpec",
    "SweepViolation",
    "SweepConfigRecord",
    "SweepReport",
    "batch_sweep",
]

_LOG = get_logger("batch")

#: The claimed-sound methods: Network Calculus and the ``safe`` trajectory.
_SOUND = AnalysisOptions(serialization="safe")


@dataclass(frozen=True)
class SweepSpec:
    """What one sweep explores.

    ``configs`` seeded topologies are generated as
    ``random_network(base_seed + i, ...)``; each is simulated under
    ``scenarios_per_config`` traffic scenarios (seeds ``0..n-1``, both
    synchronized and desynchronized releases alternating) of
    ``duration_ms`` simulated milliseconds.
    """

    configs: int = 50
    base_seed: int = 0
    n_switches: int = 3
    n_end_systems: int = 6
    n_virtual_links: int = 6
    scenarios_per_config: int = 2
    duration_ms: float = 5.0
    cache_dir: Optional[str] = None  # share bound-cache entries across runs
    preflight: bool = False  # verify each config (repro.network.preflight) first


@dataclass(frozen=True)
class SweepViolation:
    """One observed delay above a claimed bound — a soundness bug."""

    config_seed: int
    path: Tuple[str, int]
    scenario_seed: int
    synchronized: bool
    observed_us: float
    bound_us: float
    method: str  # "network_calculus" | "trajectory_safe"


@dataclass
class SweepConfigRecord:
    """Outcome of one configuration's analyze-and-simulate cycle."""

    config_seed: int
    n_paths: int = 0
    n_scenarios: int = 0
    min_margin_us: float = float("inf")  # min(bound - observed) over paths
    violations: List[SweepViolation] = field(default_factory=list)
    error: Optional[str] = None  # analysis failed (config skipped)


@dataclass
class SweepReport:
    """Aggregate of a whole sweep."""

    spec: SweepSpec
    records: List[SweepConfigRecord] = field(default_factory=list)
    wall_s: float = 0.0
    jobs: int = 1
    stats: Optional[Dict[str, object]] = None  # obs export when collected

    @property
    def violations(self) -> List[SweepViolation]:
        return [v for record in self.records for v in record.violations]

    @property
    def n_errors(self) -> int:
        return sum(1 for record in self.records if record.error is not None)

    @property
    def paths_checked(self) -> int:
        # repro-lint: allow[REPRO101] integer path/scenario counts; exact in floats
        return sum(record.n_paths * record.n_scenarios for record in self.records)

    def render(self) -> str:
        """Human-readable summary table."""
        lines = [
            f"batch-sweep: {len(self.records)} configs "
            f"({self.spec.n_switches} switches, {self.spec.n_end_systems} end systems, "
            f"{self.spec.n_virtual_links} VLs), "
            f"{self.paths_checked} path-scenarios checked, "
            f"{self.n_errors} configs skipped, "
            f"{len(self.violations)} bound violations "
            f"[{self.wall_s:.1f}s, jobs={self.jobs}]"
        ]
        finite = [
            record.min_margin_us
            for record in self.records
            if record.error is None and record.min_margin_us != float("inf")
        ]
        if finite:
            lines.append(
                f"tightest margin (bound - observed): {min(finite):.3f} us "
                f"on config seed "
                f"{min((record for record in self.records if record.error is None), key=lambda r: r.min_margin_us).config_seed}"
            )
        for violation in self.violations:
            lines.append(
                f"VIOLATION config={violation.config_seed} path={violation.path} "
                f"scenario={violation.scenario_seed} sync={violation.synchronized}: "
                f"observed {violation.observed_us:.3f} us > {violation.method} bound "
                f"{violation.bound_us:.3f} us"
            )
        for record in self.records:
            if record.error is not None:
                lines.append(f"skipped config={record.config_seed}: {record.error}")
        return "\n".join(lines)


_SWEEP_CACHES: Dict[str, object] = {}


def _sweep_cache(spec: SweepSpec):
    """Per-process BoundCache for a sweep, or None without ``cache_dir``.

    Workers of the same sweep share entries through the on-disk layer;
    within one process the in-memory LRU serves repeats directly.
    """
    if spec.cache_dir is None:
        return None
    cache = _SWEEP_CACHES.get(spec.cache_dir)
    if cache is None:
        from repro.incremental.cache import BoundCache

        cache = BoundCache(cache_dir=spec.cache_dir)
        _SWEEP_CACHES[spec.cache_dir] = cache
    return cache


def sweep_one_config(config_seed: int, spec: SweepSpec) -> SweepConfigRecord:
    """Analyze + simulate one seeded configuration (runs in a worker)."""
    record = SweepConfigRecord(config_seed=config_seed)
    cache = _sweep_cache(spec)
    try:
        network = random_network(
            config_seed,
            n_switches=spec.n_switches,
            n_end_systems=spec.n_end_systems,
            n_virtual_links=spec.n_virtual_links,
        )
        if spec.preflight:
            from repro.network.preflight import ConfigVerifier

            preflight = ConfigVerifier(utilization_table=False).verify_network(
                network, source=f"seed={config_seed}"
            )
            if not preflight.ok:
                first = preflight.errors[0]
                record.error = f"preflight {first.rule_id}: {first.message}"
                return record
        nc, trajectory = run_analyses(network, _SOUND, cache=cache)
    except (ConfigurationError, UnstableNetworkError, AnalysisError) as exc:
        record.error = f"{type(exc).__name__}: {exc}"
        return record
    record.n_paths = len(nc.paths)
    bounds: Dict[Tuple[str, int], List[Tuple[str, float]]] = {
        key: [
            ("network_calculus", nc.paths[key].total_us),
            ("trajectory_safe", trajectory.paths[key].total_us),
        ]
        for key in nc.paths
    }
    for scenario_seed in range(spec.scenarios_per_config):
        scenario = TrafficScenario(
            duration_ms=spec.duration_ms,
            synchronized=(scenario_seed % 2 == 0),
            seed=config_seed * 1000 + scenario_seed,
        )
        observed = simulate(network, scenario)
        record.n_scenarios += 1
        for key, stats in observed.paths.items():
            for method, bound_us in bounds[key]:
                margin = bound_us - stats.max_us
                if margin < record.min_margin_us:
                    record.min_margin_us = margin
                if margin < -1e-9:
                    record.violations.append(
                        SweepViolation(
                            config_seed=config_seed,
                            path=key,
                            scenario_seed=scenario_seed,
                            synchronized=scenario.synchronized,
                            observed_us=stats.max_us,
                            bound_us=bound_us,
                            method=method,
                        )
                    )
    return record


def _sweep_worker(task: List[int]) -> Tuple[List[SweepConfigRecord], float]:
    spec: SweepSpec = worker_payload()
    start = time.perf_counter()
    records = []
    for seed in task:
        records.append(sweep_one_config(seed, spec))
        worker_emit("config", n=1, seed=seed)
    return records, time.perf_counter() - start


def batch_sweep(
    spec: SweepSpec = SweepSpec(),
    jobs: int = 1,
    collect_stats: bool = False,
    progress=None,
    pool: Optional[WorkerPool] = None,
) -> SweepReport:
    """Fuzz ``spec.configs`` seeded configurations for soundness.

    Every configuration is analyzed (Network Calculus + safe-mode
    trajectory) and simulated; any path whose observed delay exceeds a
    claimed bound is reported as a :class:`SweepViolation`.  Configs the
    analyzers reject (unstable, invalid) are recorded as skipped, not
    fatal — the sweep is a search, not a test run.

    ``pool`` reuses an existing warm :class:`WorkerPool` (the sweep
    spec is swapped in as a payload epoch; the caller owns the pool's
    lifecycle and ``jobs`` is taken from it).
    """
    jobs = pool.jobs if pool is not None else resolve_jobs(jobs)
    obs = Instrumentation.create(collect_stats, progress)
    seeds = [spec.base_seed + index for index in range(spec.configs)]
    report = SweepReport(spec=spec, jobs=jobs)
    started = time.perf_counter()
    busy_s = 0.0
    start_method = ""
    fleet_snapshot: Optional[Dict[str, object]] = None
    with obs.tracer.span("batch.sweep", jobs=jobs, configs=len(seeds)):
        if jobs == 1:
            for index, seed in enumerate(seeds):
                if obs.progress:
                    obs.progress.update("batch.sweep", index, len(seeds))
                report.records.append(sweep_one_config(seed, spec))
            busy_s = time.perf_counter() - started
        else:
            tasks = chunked(seeds, jobs * 4)
            if pool is not None:
                pool.set_payload(spec)
                own_pool = _nullcontext(pool)
            else:
                own_pool = WorkerPool(
                    jobs, spec, telemetry=progress is not None
                )
            with own_pool as live_pool:
                start_method = live_pool.start_method
                fleet, drain = fleet_drain(live_pool, progress, len(seeds))
                try:
                    done = 0
                    for records, busy in live_pool.map(_sweep_worker, tasks):
                        report.records.extend(records)
                        # repro-lint: allow[REPRO102] wall-time bookkeeping, not an analysis value
                        busy_s += busy
                        done += len(records)
                        if obs.progress and fleet is None:
                            obs.progress.update("batch.sweep", done, len(seeds))
                finally:
                    if drain is not None:
                        drain.stop()
                    if fleet is not None:
                        fleet.close()
                        fleet_snapshot = fleet.snapshot()
        if obs.progress:
            obs.progress.update("batch.sweep", len(seeds), len(seeds))
    report.wall_s = time.perf_counter() - started
    if obs.enabled:
        obs.metrics.counter("batch.sweep.configs", len(report.records))
        obs.metrics.counter("batch.sweep.violations", len(report.violations))
        obs.metrics.counter("batch.sweep.errors", report.n_errors)
        obs.metrics.counter("batch.sweep.paths_checked", report.paths_checked)
        obs.metrics.gauge("batch.sweep.jobs", jobs)
        obs.metrics.gauge("batch.sweep.wall_ms", round(report.wall_s * 1e3, 3))
        utilization = (
            min(1.0, busy_s / (report.wall_s * jobs)) if report.wall_s > 0 else 0.0
        )
        obs.metrics.gauge("batch.sweep.worker_utilization", round(utilization, 4))
        obs.metrics.gauge("batch.sweep.pool_reused", int(pool is not None))
        obs.metrics.gauge(
            "batch.sweep.start_method_fork", int(start_method == "fork")
        )
        report.stats = obs.export()
    if fleet_snapshot is not None:
        report.stats = dict(report.stats or {})
        report.stats["fleet"] = fleet_snapshot
    _LOG.info(
        "batch sweep done %s",
        kv(
            configs=len(report.records),
            violations=len(report.violations),
            errors=report.n_errors,
            jobs=jobs,
        ),
    )
    return report
