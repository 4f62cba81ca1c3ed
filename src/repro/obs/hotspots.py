"""Hot-spot reports for ``afdx profile``.

Turns the two analyzers' cost ledgers (:mod:`repro.obs.costmodel`)
and the trajectory path bounds into the three reports the ROADMAP's
perf work needs to aim at:

* **top-K ports by candidate evaluations** — where the trajectory
  fixed point actually burns its work (plus the NC flow-fold view);
* **sweep convergence cost curve** — work per sweep, so "one fewer
  sweep" and "cheaper sweeps" show up as different shapes;
* **hot paths** — paths whose busy-period bound exceeds a share
  threshold of the total, the candidates for path-local memoization.

The report separates ``deterministic`` (byte-identical across
``PYTHONHASHSEED`` and cache states — compared exactly by
``scripts/profile_smoke.py``) from ``cache`` and ``wall``
(informational, legitimately run-dependent).
"""

from __future__ import annotations

import math
from typing import Dict, List, Mapping, Optional

from repro.obs.costmodel import CostLedger

__all__ = [
    "PROFILE_SCHEMA_VERSION",
    "build_profile_report",
    "render_profile_report",
]

#: Bumped whenever the report's JSON shape changes incompatibly.
PROFILE_SCHEMA_VERSION = 2


def _ledger_from_stats(stats: Optional[Mapping[str, object]]) -> CostLedger:
    cost = (stats or {}).get("cost")
    if isinstance(cost, Mapping):
        return CostLedger.from_dict(cost)
    return CostLedger("")


def _wall_ms(stats: Optional[Mapping[str, object]]) -> float:
    """Total root-span wall time of one analyzer's stats export."""
    spans = (stats or {}).get("spans", [])
    return round(math.fsum(float(span["duration_ms"]) for span in spans), 3)


def build_profile_report(
    nc_result,
    trajectory_result,
    top: int = 10,
    busy_share_pct: float = 5.0,
    config: Optional[Mapping[str, object]] = None,
) -> Dict[str, object]:
    """Assemble the ``afdx profile`` report from two analyzed results.

    Both results must carry ``stats`` with a ``cost`` ledger
    (``collect_stats=True`` runs).  ``config`` is an optional identity
    block (:func:`repro.obs.manifest.network_identity`).
    """
    nc_ledger = _ledger_from_stats(nc_result.stats)
    traj_ledger = _ledger_from_stats(trajectory_result.stats)

    hot_ports = [
        {"port": label, **counters}
        for label, counters in traj_ledger.hot_ports("candidate_evaluations", top)
    ]
    nc_hot_ports = [
        {"port": label, **counters}
        for label, counters in nc_ledger.hot_ports("flow_folds", top)
    ]

    busy_total = math.fsum(
        bound.busy_period_us for _key, bound in sorted(trajectory_result.paths.items())
    )
    hot_paths: List[Dict[str, object]] = []
    for (vl_name, path_index), bound in sorted(trajectory_result.paths.items()):
        share = 100.0 * bound.busy_period_us / busy_total if busy_total > 0.0 else 0.0
        if share > busy_share_pct:
            hot_paths.append(
                {
                    "path": f"{vl_name}[{path_index}]",
                    "busy_period_us": round(bound.busy_period_us, 3),
                    "share_pct": round(share, 4),
                }
            )
    hot_paths.sort(key=lambda entry: (-entry["share_pct"], entry["path"]))

    report: Dict[str, object] = {
        "profile_schema": PROFILE_SCHEMA_VERSION,
        "deterministic": {
            "work": {
                "network_calculus": dict(sorted(nc_ledger.work.items())),
                "trajectory": dict(sorted(traj_ledger.work.items())),
            },
            "hot_ports": hot_ports,
            "nc_hot_ports": nc_hot_ports,
            "sweep_cost_curve": [dict(entry) for entry in traj_ledger.sweeps],
            "hot_paths": hot_paths,
            "busy_share_threshold_pct": busy_share_pct,
            "top": top,
        },
        "cache": {
            "network_calculus": deterministic_complement(nc_ledger),
            "trajectory": deterministic_complement(traj_ledger),
        },
        "wall": {
            "network_calculus_ms": _wall_ms(nc_result.stats),
            "trajectory_ms": _wall_ms(trajectory_result.stats),
        },
    }
    if config is not None:
        report["config"] = dict(config)
    return report


def deterministic_complement(ledger: CostLedger) -> Dict[str, Dict[str, int]]:
    """The cache section — exactly what ``deterministic_section`` drops."""
    return dict(ledger.to_dict()["cache"])


def _fmt_counters(counters: Mapping[str, int]) -> str:
    return " ".join(f"{name}={counters[name]}" for name in sorted(counters))


def render_profile_report(report: Mapping[str, object]) -> str:
    """The text rendering of :func:`build_profile_report` output."""
    det = report["deterministic"]
    lines: List[str] = []
    config = report.get("config")
    if config:
        identity = " ".join(
            f"{key}={config[key]}" for key in sorted(config) if key != "source"
        )
        lines.append(f"config: {identity}")
    lines.append("deterministic work counters:")
    for analyzer in sorted(det["work"]):
        lines.append(f"  {analyzer}: {_fmt_counters(det['work'][analyzer])}")
    lines.append("")
    lines.append(f"top {det['top']} ports by candidate evaluations (trajectory):")
    if det["hot_ports"]:
        for entry in det["hot_ports"]:
            counters = {k: v for k, v in entry.items() if k != "port"}
            lines.append(f"  {entry['port']:<28}{_fmt_counters(counters)}")
    else:
        lines.append("  (none)")
    lines.append(f"top {det['top']} ports by flow folds (network calculus):")
    if det["nc_hot_ports"]:
        for entry in det["nc_hot_ports"]:
            counters = {k: v for k, v in entry.items() if k != "port"}
            lines.append(f"  {entry['port']:<28}{_fmt_counters(counters)}")
    else:
        lines.append("  (none)")
    lines.append("")
    lines.append("sweep convergence cost curve:")
    if det["sweep_cost_curve"]:
        for entry in det["sweep_cost_curve"]:
            counters = {k: v for k, v in entry.items() if k != "sweep"}
            lines.append(f"  sweep {entry['sweep']}: {_fmt_counters(counters)}")
    else:
        lines.append("  (no sweep data — trajectory served from cache)")
    lines.append("")
    threshold = det["busy_share_threshold_pct"]
    lines.append(f"paths with busy-period share > {threshold}%:")
    if det["hot_paths"]:
        for entry in det["hot_paths"]:
            lines.append(
                f"  {entry['path']:<24}busy_period_us={entry['busy_period_us']}"
                f" share={entry['share_pct']}%"
            )
    else:
        lines.append("  (none)")
    lines.append("")
    lines.append("cache (run-dependent, excluded from determinism checks):")
    for analyzer in sorted(report["cache"]):
        tallies = report["cache"][analyzer]
        if tallies:
            rendered = " ".join(
                f"{name}={tallies[name]['hits']}/{tallies[name]['hits'] + tallies[name]['misses']}"
                for name in sorted(tallies)
            )
            lines.append(f"  {analyzer}: {rendered} (hits/lookups)")
        else:
            lines.append(f"  {analyzer}: (no caches active)")
    wall = report["wall"]
    lines.append(
        "wall time (informational): "
        + " ".join(f"{key}={wall[key]}" for key in sorted(wall))
    )
    return "\n".join(lines)
