"""Seeded scenario corpora: fleets of structurally related configs.

A *corpus* models the admission-control workload the fleet-throughput
engine exists for: one base topology (an airframe) and many lightly
edited variants of it (candidate configuration changes), all analyzed
with the same claimed-sound methods.  With a ``cache_dir`` every config
analyzed once is served whole from the result cache on a repeat run;
``benchmarks/bench_throughput.py`` measures the fleet as configs/sec
cold, on a warm pool and on a primed cache.

Everything is seeded: ``corpus_network(spec, i)`` is a pure function
of ``(spec, i)``, so workers regenerate their configurations from the
integer task list instead of unpickling networks, and every analysis
mode (sequential, warm pool, warm cache) sees bit-identical inputs.
"""

from __future__ import annotations

import hashlib
import random
import struct
import time
from contextlib import nullcontext as _nullcontext
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.batch.pool import (
    WorkerPool,
    chunked,
    resolve_jobs,
    telemetry_active,
    worker_emit,
    worker_payload,
    worker_persistent,
)
from repro.configs.random_topology import random_network
from repro.core.combined import AnalysisOptions, run_analyses
from repro.incremental.edits import Edit, ResizeVL, RetimeVL, apply_edits
from repro.network.topology import Network
from repro.network.virtual_link import STANDARD_BAGS_MS
from repro.obs.instrument import Instrumentation
from repro.obs.logging import get_logger, kv
from repro.obs.telemetry import fleet_drain

__all__ = [
    "CorpusSpec",
    "CorpusRecord",
    "CorpusReport",
    "analyze_corpus",
    "corpus_edits",
    "corpus_network",
]

_LOG = get_logger("batch")

#: The claimed-sound methods: Network Calculus and the ``safe`` trajectory.
_SOUND = AnalysisOptions(serialization="safe")


@dataclass(frozen=True)
class CorpusSpec:
    """One corpus: a seeded base topology plus seeded light edits.

    Config ``0`` is the base ``random_network(base_seed, ...)``; config
    ``i > 0`` applies ``edits_per_config`` load-reducing edits (BAG
    doubling, frame shrinking) to seeded victim VLs, so every variant
    stays valid and stable by construction while dirtying only a few
    ports — the shape real admission-control queries have.
    """

    configs: int = 200
    base_seed: int = 2010
    n_switches: int = 3
    n_end_systems: int = 8
    n_virtual_links: int = 24
    edits_per_config: int = 2


#: Base networks by spec — regenerating the base per variant would
#: dominate corpus generation; the base is never mutated (apply_edits
#: copies) so sharing one instance is safe.
_BASE_CACHE: Dict[CorpusSpec, Network] = {}


def _base_network(spec: CorpusSpec) -> Network:
    base = _BASE_CACHE.get(spec)
    if base is None:
        base = random_network(
            spec.base_seed,
            n_switches=spec.n_switches,
            n_end_systems=spec.n_end_systems,
            n_virtual_links=spec.n_virtual_links,
        )
        _BASE_CACHE[spec] = base
    return base


def corpus_edits(spec: CorpusSpec, index: int) -> List[Edit]:
    """The seeded edit batch of config ``index`` (empty for the base)."""
    if index == 0:
        return []
    base = _base_network(spec)
    rng = random.Random(spec.base_seed * 100003 + index)
    names = sorted(base.virtual_links)
    victims = rng.sample(names, min(spec.edits_per_config, len(names)))
    edits: List[Edit] = []
    for name in victims:
        vl = base.vl(name)
        if rng.random() < 0.5 and vl.bag_ms < STANDARD_BAGS_MS[-1]:
            edits.append(RetimeVL(name=name, bag_ms=vl.bag_ms * 2))
        else:
            edits.append(
                ResizeVL(
                    name=name,
                    s_max_bytes=max(vl.s_min_bytes, vl.s_max_bytes * 0.75),
                )
            )
    return edits


def corpus_network(spec: CorpusSpec, index: int) -> Network:
    """Configuration ``index`` of the corpus — pure in ``(spec, index)``."""
    base = _base_network(spec)
    edits = corpus_edits(spec, index)
    if not edits:
        return base
    edited, _impact = apply_edits(base, edits)
    return edited


@dataclass(frozen=True)
class CorpusRecord:
    """One configuration's analysis outcome.

    ``bounds_digest`` hashes every path's NC and safe-trajectory bound
    losslessly (packed doubles over the sorted path keys), so two runs
    produced identical bounds *iff* their digests match — the
    bit-identity handle the throughput benchmark compares across cold,
    warm-pool and warm-cache modes.
    """

    index: int
    n_paths: int
    bounds_digest: str


def analyze_one_config(
    spec: CorpusSpec, index: int, cache=None
) -> CorpusRecord:
    """Analyze config ``index`` with both claimed-sound methods."""
    nc, trajectory = run_analyses(corpus_network(spec, index), _SOUND, cache=cache)
    digest = hashlib.sha256()
    for key in sorted(nc.paths):
        digest.update(repr(key).encode())
        digest.update(
            struct.pack(
                "<2d", nc.paths[key].total_us, trajectory.paths[key].total_us
            )
        )
    return CorpusRecord(
        index=index, n_paths=len(nc.paths), bounds_digest=digest.hexdigest()
    )


@dataclass
class CorpusReport:
    """Aggregate of one corpus analysis pass."""

    spec: CorpusSpec
    records: List[CorpusRecord] = field(default_factory=list)
    wall_s: float = 0.0
    jobs: int = 1
    stats: Optional[Dict[str, object]] = None

    @property
    def configs_per_s(self) -> float:
        return len(self.records) / self.wall_s if self.wall_s > 0 else 0.0

    @property
    def digest(self) -> str:
        """One hash over every config's bounds digest, in index order."""
        digest = hashlib.sha256()
        for record in sorted(self.records, key=lambda r: r.index):
            digest.update(record.bounds_digest.encode())
        return digest.hexdigest()

    @property
    def paths_bound(self) -> int:
        # repro-lint: allow[REPRO101] integer path counts; exact in floats
        return sum(record.n_paths for record in self.records)


def _cache_tally(cache) -> Tuple[int, int]:
    """(hits, misses) from a BoundCache counter snapshot.

    ``hits`` already folds the disk tier in (a disk hit increments
    both ``hits`` and ``disk_hits``).
    """
    if cache is None:
        return (0, 0)
    stats = cache.stats()
    return (int(stats.get("hits", 0)), int(stats.get("misses", 0)))


def _corpus_worker(task: List[int]) -> List[CorpusRecord]:
    spec, cache_dir = worker_payload()
    cache = None
    if cache_dir is not None:
        def build():
            from repro.incremental.cache import BoundCache

            return BoundCache(cache_dir=cache_dir)

        # persists across payload epochs: the same worker serves many
        # corpora/configs with its in-memory LRU intact (the disk tier
        # shares entries across workers and processes)
        cache = worker_persistent(f"bound_cache:{cache_dir}", build)
    live = telemetry_active()
    records: List[CorpusRecord] = []
    for index in task:
        before = _cache_tally(cache) if live else (0, 0)
        records.append(analyze_one_config(spec, index, cache))
        if live:
            after = _cache_tally(cache)
            worker_emit(
                "config",
                n=1,
                index=index,
                cache_hits=after[0] - before[0],
                cache_misses=after[1] - before[1],
            )
    return records


def analyze_corpus(
    spec: CorpusSpec = CorpusSpec(),
    jobs: int = 1,
    cache_dir: Optional[str] = None,
    collect_stats: bool = False,
    progress=None,
    pool: Optional[WorkerPool] = None,
) -> CorpusReport:
    """Analyze every configuration of a corpus; fleet-throughput core.

    One task per configuration (embarrassingly parallel).  ``pool``
    reuses an existing warm :class:`WorkerPool` — the corpus payload is
    swapped in as a new epoch and the workers keep their persistent
    per-process bound caches, whose whole-result entries a shared
    ``cache_dir`` persists across runs.  Bounds are bit-identical
    across all modes (compare :attr:`CorpusReport.digest`).
    """
    jobs = pool.jobs if pool is not None else resolve_jobs(jobs)
    obs = Instrumentation.create(collect_stats, progress)
    report = CorpusReport(spec=spec, jobs=jobs)
    indices = list(range(spec.configs))
    fleet_snapshot: Optional[Dict[str, object]] = None
    started = time.perf_counter()
    with obs.tracer.span("batch.corpus", jobs=jobs, configs=len(indices)):
        if jobs == 1 and pool is None:
            cache = None
            if cache_dir is not None:
                from repro.incremental.cache import BoundCache

                cache = BoundCache(cache_dir=cache_dir)
            for index in indices:
                if obs.progress:
                    obs.progress.update("batch.corpus", index, len(indices))
                report.records.append(analyze_one_config(spec, index, cache))
        else:
            payload = (spec, cache_dir)
            tasks = chunked(indices, jobs * 4)
            if pool is not None:
                pool.set_payload(payload)
                own_pool = _nullcontext(pool)
            else:
                # a fresh pool opens its telemetry channel iff someone
                # is watching; a borrowed warm pool keeps whatever its
                # owner chose (its queue, when present, is drained here)
                own_pool = WorkerPool(
                    jobs, payload, telemetry=progress is not None
                )
            with own_pool as live_pool:
                fleet, drain = fleet_drain(live_pool, progress, len(indices))
                try:
                    done = 0
                    for records in live_pool.map(_corpus_worker, tasks):
                        report.records.extend(records)
                        done += len(records)
                        if obs.progress and fleet is None:
                            obs.progress.update(
                                "batch.corpus", done, len(indices)
                            )
                finally:
                    if drain is not None:
                        drain.stop()
                    if fleet is not None:
                        fleet.close()
                        fleet_snapshot = fleet.snapshot()
        if obs.progress:
            obs.progress.update("batch.corpus", len(indices), len(indices))
    report.wall_s = time.perf_counter() - started
    if obs.enabled:
        obs.metrics.counter("batch.corpus.configs", len(report.records))
        obs.metrics.counter("batch.corpus.paths_bound", report.paths_bound)
        obs.metrics.gauge("batch.corpus.jobs", jobs)
        obs.metrics.gauge("batch.corpus.wall_ms", round(report.wall_s * 1e3, 3))
        obs.metrics.gauge("batch.corpus.pool_reused", int(pool is not None))
        report.stats = obs.export()
    if fleet_snapshot is not None:
        report.stats = dict(report.stats or {})
        report.stats["fleet"] = fleet_snapshot
    _LOG.info(
        "corpus analyzed %s",
        kv(
            configs=len(report.records),
            paths=report.paths_bound,
            jobs=jobs,
            warm_pool=int(pool is not None),
            cached=int(cache_dir is not None),
        ),
    )
    return report
