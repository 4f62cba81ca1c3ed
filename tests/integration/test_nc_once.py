"""The combined approach runs Network Calculus once per analysis.

The trajectory analyzer seeds ``Smax`` from NC per-port bounds.  Every
path that runs both methods hands its NC result to the trajectory
analyzer instead of letting it propagate NC a second time.  The seed
rule lives in the trajectory layer: only a grouped, overhead-free
result is the seed; any other result is ignored.  That NC run is also
the analysis' only library config gate (``check_network``).
"""

import json
import sys

import pytest

from repro.batch.corpus import CorpusSpec, analyze_one_config
from repro.batch.sweep import SweepSpec, batch_sweep
from repro.cli import main
from repro.configs import IndustrialConfigSpec, fig1_network, fig2_network, random_network
from repro.core.combined import AnalysisOptions, analyze_network, run_analyses
from repro.experiments.runner import industrial_comparison
from repro.incremental import DeltaAnalyzer
from repro.incremental.cache import CACHE_VERSION, BoundCache
from repro.incremental.edits import RetimeVL
from repro.netcalc.analyzer import NetworkCalculusAnalyzer, analyze_network_calculus
from repro.network import network_to_json, preflight
from repro.trajectory.analyzer import TrajectoryAnalyzer, analyze_trajectory
from repro.trajectory.serialization import SERIALIZATION_MODES


@pytest.fixture
def nc_runs(monkeypatch):
    """Names of the networks NC propagated over (cache hits excluded)."""
    runs = []
    propagate = NetworkCalculusAnalyzer._propagate

    def counted(self):
        runs.append(self.network.name)
        return propagate(self)

    monkeypatch.setattr(NetworkCalculusAnalyzer, "_propagate", counted)
    return runs


@pytest.fixture
def gate_calls(monkeypatch):
    """Names of the networks ``check_network`` judged, wherever it was
    imported from."""
    calls = []
    check = preflight.check_network

    def counted(network):
        calls.append(network.name)
        return check(network)

    for module in list(sys.modules.values()):
        if getattr(module, "check_network", None) is check:
            monkeypatch.setattr(module, "check_network", counted)
    return calls


@pytest.fixture
def fig2_json(tmp_path):
    path = tmp_path / "fig2.json"
    network_to_json(fig2_network(), path)
    return str(path)


def _span_names(result):
    return {span["name"] for span in result.stats["spans"]}


class TestOnePropagationPerAnalysis:
    @pytest.mark.parametrize(
        "argv",
        [
            ["analyze", "{config}"],
            ["profile", "{config}"],
            ["explain", "{config}"],
            ["simulate", "{config}", "--duration-ms", "5"],
            ["report", "{config}"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_cli_command(self, argv, fig2_json, nc_runs, capsys):
        assert main([arg.format(config=fig2_json) for arg in argv]) == 0
        assert nc_runs == ["fig2"]

    def test_analyze_network(self, nc_runs):
        analyze_network(fig2_network())
        assert nc_runs == ["fig2"]

    def test_corpus_config(self, nc_runs):
        analyze_one_config(CorpusSpec(configs=2, n_virtual_links=8), 1)
        assert len(nc_runs) == 1

    def test_industrial_comparison(self, nc_runs):
        # unwrapped: its lru_cache would serve a repeat from memory
        industrial_comparison.__wrapped__(IndustrialConfigSpec(n_virtual_links=30))
        assert len(nc_runs) == 1

    def test_batch_sweep_config(self, nc_runs):
        batch_sweep(
            SweepSpec(configs=1, base_seed=4, scenarios_per_config=1, duration_ms=1.0)
        )
        assert len(nc_runs) == 1

    def test_delta_round(self, nc_runs):
        engine = DeltaAnalyzer(fig2_network())
        engine.analyze_base()
        del nc_runs[:]
        engine.apply([RetimeVL(name="v1", bag_ms=8)])
        assert nc_runs == ["fig2"]


@pytest.fixture
def rule_runs(monkeypatch):
    """Names of the networks the gate's rules (CFG102/108/109) judged,
    by the loader's verifier or by ``check_network``."""
    runs = []
    check = preflight.ConfigVerifier._check_bound_preconditions

    def counted(self, network, report):
        runs.append(network.name)
        return check(self, network, report)

    monkeypatch.setattr(preflight.ConfigVerifier, "_check_bound_preconditions", counted)
    return runs


@pytest.mark.parametrize("mode", SERIALIZATION_MODES)
def test_analyze_judges_its_configuration_once(mode, fig2_json, rule_runs, capsys):
    """The loader's verifier passes the network; NC's ``check_network``
    finds that pass on it and judges nothing again."""
    assert main(["analyze", fig2_json, "--serialization", mode]) == 0
    assert rule_runs == ["fig2"]


@pytest.mark.parametrize("mode", SERIALIZATION_MODES)
def test_run_analyses_gates_once(mode, gate_calls):
    network = fig2_network()
    del gate_calls[:]  # the builder judged it too
    run_analyses(network, AnalysisOptions(serialization=mode))
    assert gate_calls == ["fig2"]


class TestSeedRule:
    def test_default_result_is_the_seed(self):
        network = fig2_network()
        nc = analyze_network_calculus(network)
        seeded = analyze_trajectory(network, nc_result=nc, collect_stats=True)
        own = analyze_trajectory(network, collect_stats=True)
        assert seeded.paths == own.paths
        assert "trajectory.nc_seed" in _span_names(own)
        assert "trajectory.nc_seed" not in _span_names(seeded)

    @pytest.mark.parametrize("refine_smax", [True, False])
    @pytest.mark.parametrize(
        "options",
        [{"grouping": False}, {"frame_overhead_bytes": 20}],
        ids=["no-grouping", "overhead-20"],
    )
    @pytest.mark.parametrize(
        "build",
        [fig2_network, lambda: random_network(3, 4, 10, 16)],
        ids=["fig2", "random"],
    )
    def test_other_results_are_ignored(self, build, options, refine_smax, nc_runs):
        network = build()
        other = analyze_network_calculus(network, **options)
        own = analyze_trajectory(network, refine_smax=refine_smax)
        del nc_runs[:]
        given = analyze_trajectory(network, refine_smax=refine_smax, nc_result=other)
        assert nc_runs == [network.name]  # seeded itself
        assert (given.refinement_iterations, given.paths) == (
            own.refinement_iterations,
            own.paths,
        )

    def test_an_ignored_result_would_move_the_bounds(self):
        """What the rule guards against: this seed changes the bounds."""
        network = random_network(3, 4, 10, 16)
        other = analyze_network_calculus(network, frame_overhead_bytes=20)
        analyzer = TrajectoryAnalyzer(network, refine_smax=False)
        analyzer._nc_seed = other  # past the rule, straight into prepare()
        own = analyze_trajectory(network, refine_smax=False)
        assert analyzer.analyze().paths != own.paths

    def test_result_of_another_network_is_rejected(self):
        with pytest.raises(ValueError, match="different VL paths"):
            TrajectoryAnalyzer(
                fig1_network(), nc_result=analyze_network_calculus(fig2_network())
            )

    def test_frame_overhead_is_recorded_on_every_path(self, tmp_path):
        network = fig2_network()
        assert analyze_network_calculus(network).frame_overhead_bytes == 0
        computed, cached = BoundCache(cache_dir=tmp_path), BoundCache(cache_dir=tmp_path)
        for cache in (computed, cached):
            result = analyze_network_calculus(
                network, frame_overhead_bytes=20, cache=cache
            )
            assert result.frame_overhead_bytes == 20
        assert cached.stats()["hits"] == 1


def test_seeded_run_keeps_the_result_cache(fig2_json, tmp_path, monkeypatch, capsys):
    """A trajectory run seeded from the caller's NC result still probes
    and stores its whole result: a warm ``analyze`` is one result hit
    per analysis and misses nothing."""
    caches = []
    init = BoundCache.__init__

    def recorded(self, *args, **kwargs):
        init(self, *args, **kwargs)
        caches.append(self)

    monkeypatch.setattr(BoundCache, "__init__", recorded)
    cache_dir = tmp_path / "cache"
    argv = ["analyze", fig2_json, "--cache-dir", str(cache_dir)]

    assert main(argv) == 0
    cold_out = capsys.readouterr().out
    assert sorted(entry.name for entry in (cache_dir / f"v{CACHE_VERSION}").iterdir()) == [
        "nc.result",
        "traj.cost",
        "traj.result",
    ]

    del caches[:]
    manifest = tmp_path / "warm.json"
    assert main(argv + ["--metrics-json", str(manifest)]) == 0
    warm_out = capsys.readouterr().out
    analyzers = json.loads(manifest.read_text())["analyzers"]
    for name in ("network_calculus", "trajectory"):
        assert analyzers[name]["cost"]["cache"] == {"result": {"hits": 1, "misses": 0}}
    assert [cache.stats()["misses"] for cache in caches] == [0]
    assert warm_out == cold_out
