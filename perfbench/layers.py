"""Per-layer decomposition of one analysis, timed from outside.

Every span wraps a call into a public function of one of the program's
layers (``network``, ``netcalc``, ``trajectory``, ``core``); nothing
inside the program is instrumented beyond the ``collect_stats`` spans
the trajectory analyzer already emits, which are read, not added.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Dict, List

from harness import Deadline, SpanLog, median, ratio, timed

from repro.core.combined import build_comparison
from repro.core.comparison import summarize
from repro.netcalc.analyzer import NetworkCalculusAnalyzer, analyze_network_calculus
from repro.network.serialization import network_from_json
from repro.obs.costmodel import netcalc_cost_ledger, trajectory_result_work
from repro.trajectory.analyzer import TrajectoryAnalyzer, analyze_trajectory

#: Memo tiers of the sequential fast kernel, as ``cache_stats()`` names them.
MEMO_TIERS = ("horizon", "meetings", "events", "sweep_memo")


def work_counts(nc_result, trajectory_result) -> Dict[str, int]:
    """The exact CostLedger work totals derivable from two results."""
    work = {f"netcalc.{k}": v for k, v in netcalc_cost_ledger(nc_result).work.items()}
    work.update(
        {f"trajectory.{k}": v for k, v in trajectory_result_work(trajectory_result).items()}
    )
    return work


def cold_analysis(network):
    """Untraced NC plus trajectory, the way a one-shot caller runs them."""
    return analyze_network_calculus(network), analyze_trajectory(network)


def drive_trajectory(log: SpanLog, network):
    """Run the trajectory fixed point through its public step functions."""
    analyzer = TrajectoryAnalyzer(network)
    log.call("trajectory.prepare", analyzer.prepare)
    vl_names = list(network.virtual_links)
    bounds: Dict = {}
    sweeps = 0
    for _ in range(analyzer.max_refinements):
        bounds = log.call("trajectory.sweep", lambda: analyzer.sweep_vls(vl_names))
        sweeps += 1
        updates, _delta = log.call("trajectory.tighten", lambda: analyzer.tighten_smax(bounds))
        if not updates:
            break
    result = log.call("trajectory.build", lambda: analyzer.build_result(bounds, sweeps))
    return result, analyzer.cache_stats()


@dataclass
class TracedAnalysis:
    """Per-layer values of a traced analysis plus the results it produced.

    ``op_s`` and ``untraced_op_s`` are median walls of one in-process
    analysis (load, NC, trajectory, combine) with and without the
    per-layer spans, run alternately so drift hits both alike.
    """

    layers: Dict[str, float]
    problems: List[str]
    op_s: float
    untraced_op_s: float
    nc: object
    trajectory: object
    combined: object


def trace_analysis(config_path: str, budget_s: float, min_repeats: int = 3) -> TracedAnalysis:
    """Traced analysis of one JSON config, repeated for about ``budget_s``.

    Timings are medians over the repeats. The first repeat also runs
    ``analyze()`` with the analyzer's own spans on, to read them and to
    check the step-driven bounds against it.
    """
    problems: List[str] = []
    per_rep: List[Dict[str, float]] = []
    op_walls: List[float] = []
    untraced_walls: List[float] = []
    first: Dict[str, float] = {}
    deadline = Deadline(budget_s)
    while len(per_rep) < min_repeats or not deadline.expired():
        log = SpanLog()
        started = time.perf_counter()
        network = log.call("network.load", lambda: network_from_json(config_path))
        nc = log.call("netcalc.analyze", lambda: NetworkCalculusAnalyzer(network).analyze())
        trajectory, memo = drive_trajectory(log, network)
        combined = log.call("core.combine", lambda: build_comparison(nc, trajectory))
        op_walls.append(time.perf_counter() - started)
        untraced_walls.append(timed(lambda: _untraced_op(config_path))[1])
        per_rep.append(
            {
                "network.load_s": log.total("network.load"),
                "netcalc.analyze_s": log.total("netcalc.analyze"),
                "trajectory.analyze_s": math.fsum(
                    log.total(name)
                    for name in ("trajectory.prepare", "trajectory.sweep",
                                 "trajectory.tighten", "trajectory.build")
                ),
                "trajectory.prepare_s": log.total("trajectory.prepare"),
                "trajectory.sweep_s": log.total("trajectory.sweep"),
                "trajectory.tighten_s": log.total("trajectory.tighten"),
                "trajectory.build_s": log.total("trajectory.build"),
                "core.combine_s": log.total("core.combine"),
            }
        )
        if not first:
            reference = TrajectoryAnalyzer(network, collect_stats=True).analyze()
            if reference.paths != trajectory.paths:
                problems.append("step-driven trajectory bounds differ from analyze()")
            spans = {s["name"]: s["duration_ms"] / 1000.0 for s in reference.stats["spans"]}
            first = {
                "trajectory.nc_seed_s": spans.get("trajectory.nc_seed", 0.0),
                "trajectory.precompute_s": spans.get("trajectory.precompute", 0.0),
                "trajectory.sweeps": log.count("trajectory.sweep"),
                **result_layers(nc, trajectory, combined),
            }
            for tier in MEMO_TIERS:
                hits, misses = memo.get(tier, (0, 0))
                first[f"trajectory.memo.{tier}.hit_ratio"] = ratio(hits, hits + misses)
                first[f"trajectory.memo.{tier}.lookups"] = hits + misses
    layers = {name: median([rep[name] for rep in per_rep]) for name in per_rep[0]}
    layers.update(first)
    return TracedAnalysis(
        layers, problems, median(op_walls), median(untraced_walls), nc, trajectory, combined
    )


def _untraced_op(config_path: str) -> None:
    network = network_from_json(config_path)
    nc, trajectory = cold_analysis(network)
    build_comparison(nc, trajectory)


def result_layers(nc, trajectory, combined) -> Dict[str, float]:
    """Work counts and Table I tightness read off finished results."""
    work = work_counts(nc, trajectory)
    stats = summarize(combined.paths.values())
    return {
        "netcalc.flow_folds": work["netcalc.flow_folds"],
        "netcalc.curve_knot_operations": work["netcalc.curve_knot_operations"],
        "netcalc.ports_analyzed": work["netcalc.ports_analyzed"],
        "trajectory.path_candidate_evaluations": work["trajectory.path_candidate_evaluations"],
        "trajectory.path_competitor_folds": work["trajectory.path_competitor_folds"],
        "core.paths": stats.n_paths,
        "core.benefit_best_pct.mean": stats.mean_benefit_best_pct,
        "core.benefit_trajectory_pct.mean": stats.mean_benefit_trajectory_pct,
    }
