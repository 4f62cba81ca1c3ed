"""Kernel-equivalence gate (run by ``scripts/check.sh``).

The trajectory analyzer ships two sweep implementations: the
``reference`` kernel (the straight transcription of the paper's
per-candidate walk) and the ``fast`` kernel (flat per-port competitor
tables, batched busy-period folds, shared-subpath memoization and a
proven candidate-dominance prune — see docs/PERFORMANCE.md).  The
contract is Zippo & Stea's: *faster, not looser*.  This gate enforces
it bit for bit:

1. On every scenario below, the fast kernel's per-path bounds equal
   the reference kernel's **exactly** — every float field and the
   competitor count; only ``n_candidates`` may be *smaller* (the
   dominance prune skips candidates it proves cannot win).
2. The fast kernel is self-consistent across execution shapes:
   ``--jobs 1`` vs ``--jobs 2`` and cold vs warm incremental cache all
   yield bit-identical paths and byte-identical deterministic
   :class:`CostLedger` sections.
3. Across kernels the deterministic ledger sections agree after the
   candidate-evaluation counters (the only prune-dependent numbers)
   are dropped.

Any violation prints the offending scenario and exits non-zero.

``--jobs N`` sets the parallel execution shape (default 2); with
``--warm-pool`` a single :class:`WorkerPool` is created once and
reused across every scenario (payload epochs), proving the warm-pool
fleet mode is as bit-exact as fresh pools.  Either way the gate ends
by asserting no worker process outlived its pool.
"""

import argparse
import multiprocessing
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.batch import BatchAnalyzer  # noqa: E402
from repro.batch.pool import WorkerPool  # noqa: E402
from repro.configs import fig1_network, fig2_network  # noqa: E402
from repro.configs.industrial import (  # noqa: E402
    IndustrialConfigSpec,
    industrial_network,
)
from repro.configs.random_topology import random_network  # noqa: E402
from repro.obs.costmodel import deterministic_section  # noqa: E402
from repro.trajectory.analyzer import TrajectoryAnalyzer  # noqa: E402

_FLOAT_FIELDS = (
    "total_us",
    "critical_instant_us",
    "busy_period_us",
    "workload_us",
    "transition_us",
    "latency_us",
    "serialization_gain_us",
)


def _scenarios():
    yield "fig1/paper", fig1_network(), "paper"
    yield "fig1/windowed", fig1_network(), "windowed"
    yield "fig1/safe", fig1_network(), "safe"
    yield "fig2/paper", fig2_network(), "paper"
    yield "fig2/windowed", fig2_network(), "windowed"
    yield "fig2/safe", fig2_network(), "safe"
    yield (
        "random-589/safe",
        random_network(589, n_switches=3, n_end_systems=6, n_virtual_links=6),
        "safe",
    )
    yield (
        "random-7/windowed",
        random_network(7, n_switches=3, n_end_systems=8, n_virtual_links=8),
        "windowed",
    )
    yield (
        "industrial-120/windowed",
        industrial_network(IndustrialConfigSpec(n_virtual_links=120)),
        "windowed",
    )


def _fail(scenario, message):
    print(f"kernel gate FAILED on {scenario}: {message}")
    sys.exit(1)


def _check_paths(scenario, label, reference, candidate):
    if set(reference.paths) != set(candidate.paths):
        _fail(scenario, f"{label}: path key sets differ")
    for key in reference.paths:
        ref, fast = reference.paths[key], candidate.paths[key]
        for field in _FLOAT_FIELDS:
            if getattr(ref, field) != getattr(fast, field):
                _fail(
                    scenario,
                    f"{label}: {key} {field} "
                    f"{getattr(ref, field)!r} != {getattr(fast, field)!r}",
                )
        if ref.n_competitors != fast.n_competitors:
            _fail(scenario, f"{label}: {key} n_competitors differ")
        if fast.n_candidates > ref.n_candidates:
            _fail(
                scenario,
                f"{label}: {key} fast evaluated more candidates "
                f"({fast.n_candidates} > {ref.n_candidates}) — the prune "
                "must only ever skip work",
            )


def _scrub_candidates(value):
    """Recursively drop every candidate-evaluation counter."""
    if isinstance(value, dict):
        return {
            key: _scrub_candidates(entry)
            for key, entry in value.items()
            if "candidate" not in key
        }
    if isinstance(value, list):
        return [_scrub_candidates(entry) for entry in value]
    return value


def _ledger_section(result):
    assert result.stats is not None, "collect_stats run lost its ledger"
    return deterministic_section(result.stats["cost"])


def main(argv=None):
    parser = argparse.ArgumentParser(description="trajectory kernel gate")
    parser.add_argument(
        "--jobs", type=int, default=2,
        help="worker count for the parallel execution shape (default 2)",
    )
    parser.add_argument(
        "--warm-pool", action="store_true",
        help="reuse one WorkerPool across every scenario (payload epochs)",
    )
    args = parser.parse_args(argv)

    pool = WorkerPool(args.jobs, None) if args.warm_pool else None
    try:
        _run_scenarios(args.jobs, pool)
    finally:
        if pool is not None:
            pool.close()
    leaked = multiprocessing.active_children()
    if leaked:
        print(f"kernel gate FAILED: worker processes outlived the pool {leaked}")
        sys.exit(1)
    shape = f"jobs={args.jobs}" + (" warm pool" if args.warm_pool else "")
    print(f"kernel gate OK ({shape}, no worker processes leaked)")


def _run_scenarios(jobs, pool):
    for scenario, network, mode in _scenarios():
        reference = TrajectoryAnalyzer(
            network, serialization=mode, kernel="reference", collect_stats=True
        ).analyze()

        fast_j1 = BatchAnalyzer(
            network, jobs=1, serialization=mode, collect_stats=True,
            trajectory_kernel="fast",
        ).trajectory()
        _check_paths(scenario, "fast jobs=1 vs reference", reference, fast_j1)

        fast_jn = BatchAnalyzer(
            network, jobs=jobs, serialization=mode, collect_stats=True,
            trajectory_kernel="fast", pool=pool,
        ).trajectory()
        _check_paths(scenario, f"fast jobs={jobs} vs reference", reference, fast_jn)

        with tempfile.TemporaryDirectory(prefix="afdx-kernel-gate-") as cache:
            cold = BatchAnalyzer(
                network, jobs=1, serialization=mode, collect_stats=True,
                trajectory_kernel="fast", incremental=True, cache_dir=cache,
            ).trajectory()
            _check_paths(scenario, "fast cold cache vs reference", reference, cold)
            warm = BatchAnalyzer(
                network, jobs=1, serialization=mode, collect_stats=True,
                trajectory_kernel="fast", incremental=True, cache_dir=cache,
            ).trajectory()
            _check_paths(scenario, "fast warm cache vs reference", reference, warm)

        # deterministic ledger sections: byte-identical across every
        # fast execution shape...
        section = _ledger_section(fast_j1)
        for label, result in (
            (f"jobs={jobs}", fast_jn),
            ("cold cache", cold),
            ("warm cache", warm),
        ):
            if _ledger_section(result) != section:
                _fail(scenario, f"fast ledger section drifted under {label}")
        # ...and equal to the reference's once the prune-dependent
        # candidate counters are dropped
        if _scrub_candidates(section) != _scrub_candidates(
            _ledger_section(reference)
        ):
            _fail(scenario, "cross-kernel ledger sections differ beyond "
                            "candidate evaluations")

        pruned = sum(
            reference.paths[key].n_candidates - fast_j1.paths[key].n_candidates
            for key in reference.paths
        )
        print(
            f"  {scenario}: {len(reference.paths)} paths bit-identical "
            f"(4 fast shapes), ledgers agree, {pruned} candidates pruned"
        )


if __name__ == "__main__":
    main()
