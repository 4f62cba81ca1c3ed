"""Shared experiment plumbing: results, registry, caching."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Dict, List, Optional, Sequence

from repro.configs.industrial import IndustrialConfigSpec, industrial_network
from repro.core.results import AnalysisResult
from repro.network.topology import Network
from repro.obs.logging import get_logger, kv
from repro.obs.metrics import MetricsRegistry

_LOG = get_logger("experiments")

__all__ = [
    "ExperimentResult",
    "EXPERIMENTS",
    "register",
    "get_experiment",
    "run_experiment",
    "industrial_config",
    "industrial_comparison",
]


@dataclass
class ExperimentResult:
    """Tabular outcome of one experiment.

    Attributes
    ----------
    experiment_id:
        Paper artefact id (``table1``, ``fig5``...).
    title:
        Human-readable description.
    headers / rows:
        The table the paper prints (rows of strings or numbers).
    notes:
        Free-form observations (population sizes, caveats).
    """

    experiment_id: str
    title: str
    headers: Sequence[str]
    rows: List[Sequence[object]] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    def to_csv(self) -> str:
        """The table as CSV (headers first; notes as ``#`` comments)."""
        import csv
        import io

        buffer = io.StringIO()
        writer = csv.writer(buffer)
        writer.writerow(self.headers)
        for row in self.rows:
            writer.writerow(row)
        for note in self.notes:
            buffer.write(f"# {note}\n")
        return buffer.getvalue()

    def render(self) -> str:
        """Format as an aligned text table."""
        def fmt(cell: object) -> str:
            if isinstance(cell, float):
                return f"{cell:.2f}"
            return str(cell)

        table = [list(map(fmt, self.headers))]
        table.extend([list(map(fmt, row)) for row in self.rows])
        widths = [max(len(row[c]) for row in table) for c in range(len(table[0]))]
        lines = [f"== {self.experiment_id}: {self.title} =="]
        for idx, row in enumerate(table):
            lines.append("  ".join(cell.rjust(widths[c]) for c, cell in enumerate(row)))
            if idx == 0:
                lines.append("  ".join("-" * widths[c] for c in range(len(widths))))
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)


#: Registry of experiment drivers, keyed by experiment id.
EXPERIMENTS: Dict[str, Callable[..., ExperimentResult]] = {}


def register(experiment_id: str):
    """Decorator adding a driver to :data:`EXPERIMENTS`."""

    def wrap(func: Callable[..., ExperimentResult]):
        EXPERIMENTS[experiment_id] = func
        return func

    return wrap


def get_experiment(experiment_id: str) -> Callable[..., ExperimentResult]:
    """Look up a driver; raises ``KeyError`` with the known ids."""
    try:
        return EXPERIMENTS[experiment_id]
    except KeyError:
        known = ", ".join(sorted(EXPERIMENTS))
        raise KeyError(f"unknown experiment {experiment_id!r}; known: {known}") from None


def run_experiment(
    experiment_id: str, metrics: Optional[MetricsRegistry] = None, **kwargs
) -> ExperimentResult:
    """Run one experiment by id.

    ``metrics`` (optional) records the ``experiment.<id>`` wall-time
    timer and a ``experiment.rows`` gauge; the run is also logged on
    the ``repro.experiments`` logger.
    """
    driver = get_experiment(experiment_id)
    if metrics is None:
        metrics = MetricsRegistry(enabled=False)
    _LOG.info("experiment start %s", kv(id=experiment_id))
    with metrics.timer(f"experiment.{experiment_id}"):
        result = driver(**kwargs)
    metrics.gauge("experiment.rows", len(result.rows))
    _LOG.info("experiment done %s", kv(id=experiment_id, rows=len(result.rows)))
    return result


@lru_cache(maxsize=4)
def industrial_config(spec: IndustrialConfigSpec = IndustrialConfigSpec()) -> Network:
    """The (cached) synthetic industrial configuration."""
    return industrial_network(spec)


@lru_cache(maxsize=4)
def industrial_comparison(
    spec: IndustrialConfigSpec = IndustrialConfigSpec(),
) -> AnalysisResult:
    """Both analyses on the industrial configuration (cached).

    Several experiments (Table I, Figs. 5 and 6) aggregate the same
    per-path bounds, so the expensive run happens once per spec.
    """
    from repro.core.combined import build_comparison
    from repro.netcalc.analyzer import analyze_network_calculus
    from repro.trajectory.analyzer import analyze_trajectory

    network = industrial_config(spec)
    nc_result = analyze_network_calculus(network, grouping=True)
    trajectory_result = analyze_trajectory(
        network, serialization=True, nc_result=nc_result
    )
    return build_comparison(nc_result, trajectory_result)
