"""Fleet throughput: configs/sec over a seeded scenario corpus.

Standalone script (not a pytest-benchmark module): it analyzes the
same 200-configuration corpus (``repro.batch.corpus``) three ways —

* **cold** — no cache, pool (when ``jobs >= 2``) created inside the
  timed region, exactly what a first-ever fleet run costs;
* **warm-pool** — a pre-warmed :class:`~repro.batch.pool.WorkerPool`
  reused across the corpus (payload epochs), still no cache;
* **warm-pool+cache** — the warm pool plus a primed shared
  ``cache_dir``, the engine's peak-throughput mode (whole-result and
  ``traj.node`` cross-config hits) —

verifies all three produce bit-identical bounds (one digest over every
path bound of every config), and appends a record to
``benchmarks/results/BENCH_throughput.json``.

The record keeps ``cpu_count`` and ``jobs`` honestly: on a single-core
runner the pool modes degrade to sequential analysis and the
warm-vs-cold ratio is carried by the cache tier alone.

Usage::

    make bench-throughput
    python benchmarks/bench_throughput.py [--configs N] [--vls N] [--jobs N]
"""

import argparse
import multiprocessing
import os
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))
sys.path.insert(0, str(REPO / "benchmarks"))

from _telemetry import append_record, record_history  # noqa: E402

from repro.batch.corpus import CorpusSpec, analyze_corpus  # noqa: E402
from repro.batch.pool import WorkerPool, resolve_jobs  # noqa: E402

RESULTS_PATH = REPO / "benchmarks" / "results" / "BENCH_throughput.json"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--configs", type=int, default=200,
                        help="corpus size (default 200)")
    parser.add_argument("--vls", type=int, default=24,
                        help="virtual links in the base topology (default 24)")
    parser.add_argument("--jobs", type=int, default=0,
                        help="worker count (0 = all cores; 1 = sequential)")
    args = parser.parse_args(argv)

    spec = CorpusSpec(configs=args.configs, n_virtual_links=args.vls)
    jobs = resolve_jobs(args.jobs)

    start = time.perf_counter()
    cold = analyze_corpus(spec, jobs=jobs)
    cold_s = time.perf_counter() - start

    pool = WorkerPool(jobs, None) if jobs >= 2 else None
    try:
        start = time.perf_counter()
        warm = analyze_corpus(spec, jobs=jobs, pool=pool)
        warm_pool_s = time.perf_counter() - start

        with tempfile.TemporaryDirectory() as cache_dir:
            # prime: one untimed pass fills the shared cache tier
            primed = analyze_corpus(
                spec, jobs=jobs, pool=pool, cache_dir=cache_dir
            )
            start = time.perf_counter()
            cached = analyze_corpus(
                spec, jobs=jobs, pool=pool, cache_dir=cache_dir
            )
            warm_cache_s = time.perf_counter() - start
    finally:
        if pool is not None:
            pool.close()

    digests = {cold.digest, warm.digest, primed.digest, cached.digest}
    assert len(digests) == 1, f"bounds diverged across modes: {digests}"
    assert multiprocessing.active_children() == [], (
        f"leaked worker processes: {multiprocessing.active_children()}"
    )

    record = {
        "configs": spec.configs,
        "n_virtual_links": spec.n_virtual_links,
        "cpu_count": os.cpu_count(),
        "jobs": jobs,
        "cold_s": round(cold_s, 4),
        "warm_pool_s": round(warm_pool_s, 4),
        "warm_cache_s": round(warm_cache_s, 4),
        "cold_cps": round(spec.configs / cold_s, 3),
        "warm_pool_cps": round(spec.configs / warm_pool_s, 3),
        "warm_cache_cps": round(spec.configs / warm_cache_s, 3),
        "warm_over_cold": round(cold_s / warm_cache_s, 3),
        "bit_identical": True,
        "bounds_digest": cold.digest,
        "work": {
            "corpus": {
                "configs_analyzed": len(cold.records),
                "paths_bound": cold.paths_bound,
            },
        },
    }

    append_record(RESULTS_PATH, record)
    import hashlib

    record_history(
        "bench-throughput",
        config={
            "configs": spec.configs,
            "n_virtual_links": spec.n_virtual_links,
        },
        config_digest=hashlib.sha256(repr(spec).encode()).hexdigest(),
        bounds_digest=cold.digest,
        work=record["work"],
        execution={"jobs": jobs, "cpu_count": record["cpu_count"]},
        wall_ms=round((cold_s + warm_pool_s + warm_cache_s) * 1e3, 3),
    )

    print(
        f"corpus({spec.configs} configs, {spec.n_virtual_links} VLs, "
        f"{cold.paths_bound} paths) on {record['cpu_count']} CPU(s), "
        f"jobs={jobs}: cold {record['cold_cps']} cfg/s, "
        f"warm-pool {record['warm_pool_cps']} cfg/s, "
        f"warm-pool+cache {record['warm_cache_cps']} cfg/s "
        f"({record['warm_over_cold']:.1f}x vs cold, bit-identical) "
        f"-> {RESULTS_PATH.relative_to(REPO)}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
