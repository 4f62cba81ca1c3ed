"""Trajectory-approach analysis of AFDX networks.

The Trajectory approach (Martin & Minet, IPDPS 2006) bounds the
worst-case response time of a packet by studying the busy periods it
meets along its *trajectory* — the sequence of output ports of its
path — instead of composing per-node worst cases.  Bauer, Scharbarg &
Fraboul applied it to AFDX (ETFA 2009); the DATE 2010 paper reproduced
here compares it against Network Calculus.

Highlights of the implementation (details in DESIGN.md, Sec. 3.2):

* per-flow sporadic model ``(C = s_max / R, T = BAG)``;
* workload of competing flows counted once each, offset by the
  arrival-jitter terms ``A_ij = Smax_j - Smin_i`` at the first meeting
  port, with ``Smax`` refined through a sound fixed point seeded from
  the Network Calculus per-port bounds;
* the per-transition "frame counted twice" term, upper-bounded by the
  largest frame crossing the node — the pessimism source the paper
  analyzes in Sec. III-B-1;
* optional input-link serialization (the grouping technique ported to
  the Trajectory approach), enabled by default.

Entry point: :class:`TrajectoryAnalyzer` (or
:func:`analyze_trajectory`).  Every name is exported lazily (PEP 562),
so ``repro.trajectory.serialization`` — the mode names the ``afdx``
parser offers — imports without the analyzer.
"""

from repro._lazy import lazy_exports

__all__ = [
    "TrajectoryAnalyzer",
    "analyze_trajectory",
    "TrajectoryResult",
    "TrajectoryPathBound",
]

_EXPORTS = {
    "repro.trajectory.analyzer": ("TrajectoryAnalyzer", "analyze_trajectory"),
    "repro.trajectory.results": ("TrajectoryPathBound", "TrajectoryResult"),
}

__getattr__ = lazy_exports(__name__, _EXPORTS)
