"""Result containers for the combined analysis and method comparison."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

if TYPE_CHECKING:
    from repro.netcalc.results import NetworkCalculusResult
    from repro.trajectory.results import TrajectoryResult

__all__ = ["PathComparison", "ComparisonStats", "AnalysisResult"]

FlowPathKey = Tuple[str, int]


@dataclass(frozen=True)
class PathComparison:
    """Per-VL-path bounds from both methods and their combination.

    ``benefit_trajectory_pct`` is the paper's Table I metric:
    ``100 * (NC - Trajectory) / NC`` — positive when the Trajectory
    bound is tighter.  ``benefit_best_pct`` is the same for the
    combined bound (never negative by construction).
    """

    vl_name: str
    path_index: int
    node_path: Tuple[str, ...]
    network_calculus_us: float
    trajectory_us: float
    best_us: float
    benefit_trajectory_pct: float
    benefit_best_pct: float

    @property
    def flow(self) -> str:
        """Readable identifier, e.g. ``"v1[0]"``."""
        return f"{self.vl_name}[{self.path_index}]"

    @property
    def trajectory_wins(self) -> bool:
        """True when the Trajectory bound is strictly tighter."""
        return self.trajectory_us < self.network_calculus_us - 1e-9


@dataclass(frozen=True)
class ComparisonStats:
    """Aggregate statistics in the shape of the paper's Table I."""

    n_paths: int
    mean_benefit_trajectory_pct: float
    max_benefit_trajectory_pct: float
    min_benefit_trajectory_pct: float
    mean_benefit_best_pct: float
    max_benefit_best_pct: float
    min_benefit_best_pct: float
    trajectory_wins_share: float
    """Fraction of VL paths where the Trajectory bound is strictly tighter."""

    def as_table(self) -> str:
        """Render as the paper's Table I layout."""
        rows = [
            ("", "Trajectory/WCNC", "Best/WCNC"),
            (
                "Mean",
                f"{self.mean_benefit_trajectory_pct:.2f}%",
                f"{self.mean_benefit_best_pct:.2f}%",
            ),
            (
                "Maximum",
                f"{self.max_benefit_trajectory_pct:.2f}%",
                f"{self.max_benefit_best_pct:.2f}%",
            ),
            (
                "Minimum",
                f"{self.min_benefit_trajectory_pct:.2f}%",
                f"{self.min_benefit_best_pct:.2f}%",
            ),
        ]
        widths = [max(len(row[col]) for row in rows) for col in range(3)]
        lines = [
            "  ".join(cell.ljust(widths[col]) for col, cell in enumerate(row))
            for row in rows
        ]
        lines.append(
            f"(Trajectory strictly tighter on {self.trajectory_wins_share * 100:.1f}% "
            f"of {self.n_paths} VL paths)"
        )
        return "\n".join(lines)


@dataclass
class AnalysisResult:
    """Combined outcome: both methods plus the per-path best bound.

    Attributes
    ----------
    paths:
        One :class:`PathComparison` per VL path, keyed by
        ``(vl_name, path_index)``.
    stats:
        Aggregate statistics (populated by :func:`analyze_network`; None
        for a bare :func:`build_comparison`).
    netcalc / trajectory:
        The two per-method results the comparison was built from.
    """

    paths: Dict[FlowPathKey, PathComparison] = field(default_factory=dict)
    stats: Optional[ComparisonStats] = None
    netcalc: Optional["NetworkCalculusResult"] = None
    trajectory: Optional["TrajectoryResult"] = None

    def path_list(self) -> List[PathComparison]:
        """All per-path comparisons in deterministic order."""
        return [self.paths[key] for key in sorted(self.paths)]

    def best_us(self, vl_name: str, path_index: int = 0) -> float:
        """Combined (tightest) bound for one VL path."""
        return self.paths[(vl_name, path_index)].best_us
