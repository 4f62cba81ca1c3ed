"""The combined pipeline: one options object, one place that runs both analyzers.

Every entry point that combines Network Calculus and the trajectory
approach (``run_analyses``, ``analyze_network``, ``DeltaAnalyzer``,
``explain_network`` and the CLI commands) must compute what direct
analyzer calls with the same options compute.
"""

import json

import pytest

from repro.cli import main
from repro.configs import fig2_network, random_network
from repro.core import combined
from repro.core.combined import AnalysisOptions, analyze_network, run_analyses
from repro.explain import explain_network
from repro.incremental import delta
from repro.incremental.delta import DeltaAnalyzer
from repro.netcalc.analyzer import analyze_network_calculus
from repro.network import network_to_json
from repro.trajectory.analyzer import analyze_trajectory
from repro.trajectory.serialization import DEFAULT_SERIALIZATION, SERIALIZATION_MODES

NETWORKS = {"fig2": fig2_network, "random": lambda: random_network(3, 4, 10, 16)}


@pytest.fixture(scope="module", params=sorted(NETWORKS))
def network(request):
    return NETWORKS[request.param]()


@pytest.fixture(
    params=[(g, m) for g in (True, False) for m in SERIALIZATION_MODES],
    ids=lambda p: f"{'grouping' if p[0] else 'no-grouping'}-{p[1]}",
)
def options(request):
    grouping, mode = request.param
    return AnalysisOptions(grouping=grouping, serialization=mode)


def _direct(network, options):
    """The bounds of separate analyzer calls under ``options``."""
    return (
        analyze_network_calculus(network, grouping=options.grouping).paths,
        analyze_trajectory(network, serialization=options.serialization).paths,
    )


def test_every_entry_point_computes_the_direct_bounds(network, options):
    expected = _direct(network, options)
    nc, trajectory = run_analyses(network, options)
    assert (nc.paths, trajectory.paths) == expected
    result = analyze_network(network, options)
    assert (result.netcalc.paths, result.trajectory.paths) == expected
    assert result.stats.n_paths == len(result.paths)
    base = DeltaAnalyzer(network, options).analyze_base()
    assert (base.netcalc.paths, base.trajectory.paths) == expected
    explanation = explain_network(network, options)
    assert (explanation.netcalc.paths, explanation.trajectory.paths) == expected


class TestAnalysisOptions:
    def test_defaults(self):
        assert AnalysisOptions() == AnalysisOptions(
            grouping=True, serialization=DEFAULT_SERIALIZATION, explain=False
        )

    @pytest.mark.parametrize("mode", [True, False, "turbo"])
    def test_serialization_goes_by_name(self, mode):
        with pytest.raises(ValueError):
            AnalysisOptions(serialization=mode)

    def test_explain_attaches_provenance(self):
        nc, trajectory = run_analyses(fig2_network(), AnalysisOptions(explain=True))
        assert nc.provenance is not None and trajectory.provenance is not None


@pytest.fixture
def pipeline_options(monkeypatch):
    """The options of every ``run_analyses`` call."""
    seen = []

    def recorded(network, options=AnalysisOptions(), **kwargs):
        seen.append(options)
        return run_analyses(network, options, **kwargs)

    monkeypatch.setattr(combined, "run_analyses", recorded)
    monkeypatch.setattr(delta, "run_analyses", recorded)
    return seen


@pytest.mark.parametrize("command", ["analyze", "profile", "whatif", "explain"])
@pytest.mark.parametrize(
    "flags, expected",
    [
        ([], AnalysisOptions()),
        (
            ["--no-grouping", "--serialization", "safe"],
            AnalysisOptions(grouping=False, serialization="safe"),
        ),
    ],
    ids=["defaults", "no-grouping-safe"],
)
def test_cli_flags_reach_the_pipeline(
    command, flags, expected, pipeline_options, tmp_path, capsys
):
    config = tmp_path / "fig2.json"
    network_to_json(fig2_network(), config)
    argv = [command, str(config)]
    if command == "whatif":
        edits = tmp_path / "edits.json"
        edits.write_text(json.dumps({"edits": [{"op": "retime", "vl": "v1", "bag_ms": 8}]}))
        argv.append(str(edits))
    assert main(argv + flags) == 0
    if command == "explain":
        expected = AnalysisOptions(
            grouping=expected.grouping,
            serialization=expected.serialization,
            explain=True,
        )
    assert pipeline_options and set(pipeline_options) == {expected}
