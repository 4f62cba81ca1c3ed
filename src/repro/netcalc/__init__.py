"""Deterministic Network Calculus (WCNC) analysis of AFDX networks.

This is the certification-grade method the paper takes as its baseline
(Sec. II-B): each Virtual Link enters the network constrained by the
leaky bucket ``(s_max, s_max / BAG)``; each output port offers a
rate-latency service curve; ports are analyzed in feed-forward
(topological) order; and the per-port FIFO delay bound is the
horizontal deviation between the port's aggregate arrival curve and its
service curve.  The *grouping* technique — capping every set of flows
that shares an input link by that link's shaping curve — is implemented
and enabled by default, as in the paper's tool.

Entry point: :class:`NetworkCalculusAnalyzer` (or the
:func:`analyze_network_calculus` convenience wrapper).
"""

from repro._lazy import lazy_exports

__all__ = [
    "NetworkCalculusAnalyzer",
    "analyze_network_calculus",
    "StaticPriorityAnalyzer",
    "analyze_static_priority",
    "NetworkCalculusResult",
    "PortAnalysis",
    "PathBound",
    "arrival_groups",
    "group_arrival_curve",
]

_EXPORTS = {
    "repro.netcalc.analyzer": (
        "NetworkCalculusAnalyzer",
        "analyze_network_calculus",
    ),
    "repro.netcalc.grouping": ("arrival_groups", "group_arrival_curve"),
    "repro.netcalc.priority": ("StaticPriorityAnalyzer", "analyze_static_priority"),
    "repro.netcalc.results": ("NetworkCalculusResult", "PathBound", "PortAnalysis"),
}

__getattr__ = lazy_exports(__name__, _EXPORTS)
