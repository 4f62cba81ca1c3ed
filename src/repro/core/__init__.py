"""Combined analysis and method comparison.

The paper's headline recommendation (Sec. IV) is the **combined
approach**: run both Network Calculus and the Trajectory approach and
keep, for every VL path, the tighter of the two bounds — never worse
than either method alone.  This package implements that combination and
the comparison statistics of the paper's evaluation (Table I and the
per-parameter aggregations behind Figs. 5 and 6).

Entry points:

* :func:`analyze_network` — run both methods on a configuration and
  return per-path NC / Trajectory / best bounds with the Table I
  statistics;
* :func:`run_analyses` — the same two analyzer runs, without the
  per-path comparison;
* :class:`AnalysisOptions` — what both compute (grouping,
  serialization mode, provenance).
"""

from repro._lazy import lazy_exports

__all__ = [
    "AnalysisOptions",
    "analyze_network",
    "build_comparison",
    "run_analyses",
    "benefit_percent",
    "summarize",
    "group_mean_benefit",
    "jitter_bounds",
    "path_floor_us",
    "JitterBound",
    "certification_report",
    "AnalysisResult",
    "ComparisonStats",
    "PathComparison",
]

_EXPORTS = {
    "repro.core.combined": (
        "AnalysisOptions",
        "analyze_network",
        "build_comparison",
        "run_analyses",
    ),
    "repro.core.comparison": ("benefit_percent", "group_mean_benefit", "summarize"),
    "repro.core.jitter": ("JitterBound", "jitter_bounds", "path_floor_us"),
    "repro.core.reporting": ("certification_report",),
    "repro.core.results": ("AnalysisResult", "ComparisonStats", "PathComparison"),
}

__getattr__ = lazy_exports(__name__, _EXPORTS)
