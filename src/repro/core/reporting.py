"""Certification-style text reports.

The certification use of these analyses (paper Sec. II-B) produces two
artefacts: per-VL end-to-end delay bounds and per-port latency/backlog
figures for switch buffer dimensioning.  :func:`certification_report`
renders both from one combined analysis, in a deterministic plain-text
format suitable for diffing between configuration revisions.
"""

from __future__ import annotations

from typing import List

from repro.core.jitter import jitter_bounds
from repro.core.results import AnalysisResult
from repro.network.topology import Network

__all__ = ["certification_report"]


def _section(title: str) -> List[str]:
    return ["", title, "=" * len(title)]


def certification_report(
    network: Network, result: AnalysisResult, top_paths: int = 10
) -> str:
    """Render a full analysis report for one configuration.

    Parameters
    ----------
    network / result:
        The configuration and its combined analysis
        (:func:`~repro.core.combined.analyze_network`); the port-level
        section (delay and backlog per output port) reads its
        ``netcalc`` result.
    top_paths:
        How many critical paths to detail.
    """
    lines: List[str] = [
        f"AFDX worst-case delay analysis report — configuration {network.name!r}",
        f"{len(network.end_systems())} end systems, {len(network.switches())} switches, "
        f"{len(network.links())} links, {len(network.virtual_links)} VLs / "
        f"{len(network.flow_paths())} paths",
        f"max port utilization: {network.max_utilization():.3f}",
    ]

    lines += _section("End-to-end delay bounds (combined approach)")
    jitters = jitter_bounds(network, result)
    header = (
        f"{'VL path':<16}{'WCNC':>10}{'Trajectory':>12}{'bound':>10}"
        f"{'floor':>10}{'jitter':>10}"
    )
    lines.append(header)
    lines.append("-" * len(header))
    for key in sorted(result.paths):
        path = result.paths[key]
        jb = jitters[key]
        lines.append(
            f"{path.flow:<16}{path.network_calculus_us:>10.1f}"
            f"{path.trajectory_us:>12.1f}{path.best_us:>10.1f}"
            f"{jb.floor_us:>10.1f}{jb.jitter_us:>10.1f}"
        )

    lines += _section(f"Top {top_paths} critical paths")
    ranked = sorted(result.paths.values(), key=lambda p: -p.best_us)[:top_paths]
    for path in ranked:
        lines.append(
            f"{path.flow:<16}{path.best_us:>10.1f} us via "
            f"{' -> '.join(path.node_path)}"
        )

    if result.stats is not None:
        lines += _section("Method comparison (paper Table I format)")
        lines.extend(result.stats.as_table().splitlines())

    netcalc = result.netcalc
    lines += _section("Output-port dimensioning (Network Calculus)")
    header = f"{'port':<16}{'flows':>6}{'util':>8}{'delay (us)':>12}{'buffer (B)':>12}"
    lines.append(header)
    lines.append("-" * len(header))
    for port_id in sorted(netcalc.ports):
        port = netcalc.ports[port_id]
        lines.append(
            f"{port_id[0] + '->' + port_id[1]:<16}{port.n_flows:>6}"
            f"{port.utilization:>8.3f}{port.delay_us:>12.1f}"
            f"{port.backlog_bits / 8:>12.0f}"
        )
    lines.append(
        f"total switch buffer budget: {netcalc.total_buffer_bits() / 8 / 1024:.1f} KiB"
    )

    return "\n".join(lines) + "\n"
