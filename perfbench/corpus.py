"""``corpus-200``: fleet throughput over a seeded 200-config corpus.

One client in a closed loop calls ``analyze_corpus(CorpusSpec(base_seed=
seed), jobs=2)`` on a two-worker ``WorkerPool`` started in set-up, with
no cache, until the measured window closes.
"""

from __future__ import annotations

from typing import List

from harness import (
    Context,
    Deadline,
    Outcome,
    SpanLog,
    median,
    normalised_ms,
    peak_rss_mb,
    percentile,
    repeat_setup,
    reference_s,
    timed,
)
from layers import work_counts

from repro.batch.corpus import CorpusRecord, CorpusReport, CorpusSpec, analyze_corpus, corpus_network
from repro.batch.pool import WorkerPool
from repro.netcalc.analyzer import analyze_network_calculus
from repro.obs.history import analysis_bounds_digest
from repro.trajectory.analyzer import analyze_trajectory

#: Worker processes; the container this was sized on has two CPUs.
JOBS = 2
#: ``reference()`` calls per worker each time the pool gauges the host.
REFERENCE_CALLS = 3


def run(ctx: Context) -> Outcome:
    outcome = Outcome()
    spec = CorpusSpec(base_seed=ctx.seed)
    pool_starts: List[float] = []

    def build() -> WorkerPool:
        for index in range(spec.configs):
            corpus_network(spec, index)
        pool, seconds = timed(lambda: WorkerPool(JOBS, None))
        pool_starts.append(seconds)
        return pool

    pool, setup, setup_norm = repeat_setup(build, discard=WorkerPool.close)
    walls: List[float] = []
    normalised: List[float] = []
    digests: List[str] = []
    try:
        deadline = Deadline(ctx.seconds)
        while not deadline.expired():
            before = _pool_reference_s(pool)
            report, wall = timed(lambda: analyze_corpus(spec, jobs=JOBS, pool=pool))
            walls.append(wall)
            normalised.append(normalised_ms(wall, before, _pool_reference_s(pool)))
            digests.append(report.digest)
    finally:
        pool.close()
    rss = max(peak_rss_mb(), peak_rss_mb(children=True))

    if ctx.trace:
        sequential, layers = _traced_sequential(spec)
    else:
        sequential, layers = analyze_corpus(spec, jobs=1), {}
    for digest in digests:
        outcome.check(
            digest == sequential.digest,
            f"jobs={JOBS} corpus digest {digest[:12]} differs from sequential "
            f"{sequential.digest[:12]}",
        )
    outcome.record = {"corpus_digest": sequential.digest, "paths_bound": sequential.paths_bound}

    outcome.timing("setup_s", setup, "s")
    outcome.timing("setup_norm_s", setup_norm, "s")
    outcome.timing("corpus_s", walls, "s")
    outcome.timing("corpus_norm_ms", normalised, "ms")
    outcome.line("corpus_cfg_per_s.p50", spec.configs / median(walls), "1/s", len(walls))
    outcome.line("peak_rss_mb (coordinator and workers)", rss, "MB")
    outcome.metrics = {
        "setup_s": median(setup_norm),
        "op_norm_ms.p50": median(normalised),
        "repeat_norm_ms.p50": median(normalised[1:] or normalised),
        "peak_rss_mb": rss,
    }
    if not ctx.trace:
        return outcome

    untraced = analyze_corpus(spec, jobs=1)
    outcome.check(untraced.digest == sequential.digest, "analyze_corpus(jobs=1) digest differs")
    layers["batch.pool_start_s"] = median(pool_starts)
    layers["batch.corpus_wall_s"] = median(walls)
    layers["batch.parallel_efficiency"] = layers["batch.sequential_s"] / (JOBS * median(walls))
    layers["bench.trace_overhead_pct"] = (
        100.0 * (layers["batch.sequential_s"] - untraced.wall_s) / untraced.wall_s
    )
    outcome.report.append(
        f"  sequential corpus: traced {layers['batch.sequential_s']:.4f} s, "
        f"untraced {untraced.wall_s:.4f} s"
    )
    outcome.layers = layers
    return outcome


def _pool_reference_s(pool: WorkerPool) -> float:
    """Median seconds of a ``reference()`` call in the workers of ``pool``.

    The corpus keeps both CPUs busy, so the host's speed is gauged where
    the corpus runs. Each worker times its own call, so how the pool
    dispatches the calls does not count.
    """
    return median(pool.map(reference_s, range(REFERENCE_CALLS * JOBS)))


def _traced_sequential(spec: CorpusSpec):
    """The corpus config by config, timing each layer call."""
    log = SpanLog()
    per_config: List[float] = []
    records: List[CorpusRecord] = []
    totals: dict = {}
    for index in range(spec.configs):
        with log.span("config"):
            network = log.call("generate", lambda: corpus_network(spec, index))
            nc = log.call("netcalc", lambda: analyze_network_calculus(network))
            trajectory = log.call(
                "trajectory", lambda: analyze_trajectory(network, serialization="safe")
            )
        per_config.append(log.spans["config"][-1])
        records.append(
            CorpusRecord(index, len(nc.paths), analysis_bounds_digest(nc, trajectory))
        )
        for name, value in work_counts(nc, trajectory).items():
            totals[name] = totals.get(name, 0) + value
    report = CorpusReport(spec=spec, records=records)
    per_config_ms = [1000.0 * seconds for seconds in per_config]
    layers = {
        "netcalc.analyze_s": log.total("netcalc"),
        "trajectory.analyze_s": log.total("trajectory"),
        "netcalc.flow_folds": totals["netcalc.flow_folds"],
        "netcalc.curve_knot_operations": totals["netcalc.curve_knot_operations"],
        "netcalc.ports_analyzed": totals["netcalc.ports_analyzed"],
        "trajectory.sweeps": totals["trajectory.sweeps"],
        "trajectory.path_candidate_evaluations": totals["trajectory.path_candidate_evaluations"],
        "trajectory.path_competitor_folds": totals["trajectory.path_competitor_folds"],
        "batch.configs": spec.configs,
        "batch.per_config_ms.p50": median(per_config_ms),
        "batch.per_config_ms.p95": percentile(per_config_ms, 95),
        "batch.sequential_s": log.total("config"),
    }
    return report, layers
